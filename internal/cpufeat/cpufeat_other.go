//go:build !amd64

package cpufeat

func probe() (avx, avx2 bool) { return false, false }
