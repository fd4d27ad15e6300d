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

// An overwrite of the same length reuses the stored vector; the copy
// contract holds across it, and a length change stores a fresh vector.
func TestStorePutOverwritesInPlace(t *testing.T) {
	st := NewStore()
	src := []float64{1, 2, 3}
	st.Put("a", src)
	before, _ := st.Get("a")
	stored := &st.data["a"][0]

	src[0], src[1], src[2] = 4, 5, 6
	if v, _ := st.Get("a"); v[0] != 1 || v[1] != 2 || v[2] != 3 {
		t.Errorf("changing the caller's slice after Put changed the stored value to %v", v)
	}
	st.Put("a", src)
	if &st.data["a"][0] != stored {
		t.Error("a same-length Put reallocated the stored vector")
	}
	if before[0] != 1 || before[1] != 2 || before[2] != 3 {
		t.Errorf("a Get copy taken before the overwrite changed to %v", before)
	}
	src[0] = -1
	if v, _ := st.Get("a"); v[0] != 4 || v[1] != 5 || v[2] != 6 {
		t.Errorf("after an in-place Put and a caller write, Get = %v, want [4 5 6]", v)
	}

	st.Put("a", []float64{7, 8})
	if v, _ := st.Get("a"); len(v) != 2 || v[0] != 7 || v[1] != 8 {
		t.Errorf("after a shorter Put, Get = %v, want [7 8]", v)
	}
	st.Put("a", []float64{9, 10, 11, 12})
	if v, _ := st.Get("a"); len(v) != 4 || v[3] != 12 {
		t.Errorf("after a longer Put, Get = %v, want [9 10 11 12]", v)
	}

	s := st.Stats()
	want := Stats{Puts: 4, Gets: 5, BytesIn: 8 * (3 + 3 + 2 + 4), BytesOut: 8 * (3 + 3 + 3 + 2 + 4)}
	if s != want {
		t.Errorf("Stats = %+v, want %+v", s, want)
	}
	if st.Len() != 1 {
		t.Errorf("Len = %d, want 1", st.Len())
	}
	if avg := testing.AllocsPerRun(50, func() { st.Put("a", src[:3]) }); avg != 0 {
		t.Errorf("a same-length Put allocates %.1f/op, want 0", avg)
	}
}
