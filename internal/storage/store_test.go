package storage

import (
	"fmt"
	"sync"
	"testing"
)

func TestStorePutGet(t *testing.T) {
	st := NewStore()
	st.Put("a", []float64{1, 2, 3})
	got, ok := st.Get("a")
	if !ok {
		t.Fatal("Get missed after Put")
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Get = %v, want %v", got, want)
		}
	}
}

func TestStoreGetReturnsCopy(t *testing.T) {
	st := NewStore()
	st.Put("a", []float64{1})
	v, _ := st.Get("a")
	v[0] = 99
	again, _ := st.Get("a")
	if again[0] != 1 {
		t.Error("Get returned a live reference; mutation leaked into the store")
	}
}

func TestStorePutCopies(t *testing.T) {
	st := NewStore()
	src := []float64{5}
	st.Put("a", src)
	src[0] = -1
	v, _ := st.Get("a")
	if v[0] != 5 {
		t.Error("Put did not copy its input")
	}
}

func TestStoreMiss(t *testing.T) {
	st := NewStore()
	if _, ok := st.Get("missing"); ok {
		t.Fatal("Get of missing key reported ok")
	}
	if st.Stats().Misses != 1 {
		t.Errorf("Misses = %d, want 1", st.Stats().Misses)
	}
}

func TestStoreStatsBytes(t *testing.T) {
	st := NewStore()
	st.Put("a", make([]float64, 10))
	st.Get("a")
	s := st.Stats()
	if s.BytesIn != 80 || s.BytesOut != 80 {
		t.Errorf("bytes in/out = %d/%d, want 80/80", s.BytesIn, s.BytesOut)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	st := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("w%d", w)
			for i := 0; i < 100; i++ {
				st.Put(key, []float64{float64(i)})
				if v, ok := st.Get(key); !ok || len(v) != 1 {
					t.Errorf("worker %d: bad read", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st.Len() != 8 {
		t.Errorf("Len = %d, want 8", st.Len())
	}
}
