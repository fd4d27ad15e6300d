package storage

import "sync"

// Store is a real in-memory key-value store for float64 vectors. The
// simulated trainer exchanges actual gradient and model vectors through a
// Store so that aggregation, staleness and convergence are numerically real;
// the Service models above supply the virtual timing and billing.
//
// Store is safe for concurrent use.
type Store struct {
	mu   sync.RWMutex
	data map[string][]float64

	puts, gets, misses uint64
	bytesIn, bytesOut  uint64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{data: make(map[string][]float64)}
}

// Put stores a copy of vec under key, overwriting any previous value.
func (st *Store) Put(key string, vec []float64) {
	cp := make([]float64, len(vec))
	copy(cp, vec)
	st.mu.Lock()
	st.data[key] = cp
	st.puts++
	st.bytesIn += uint64(8 * len(vec))
	st.mu.Unlock()
}

// Get returns a copy of the vector stored under key, or ok=false.
func (st *Store) Get(key string) (vec []float64, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.gets++
	v, ok := st.data[key]
	if !ok {
		st.misses++
		return nil, false
	}
	st.bytesOut += uint64(8 * len(v))
	cp := make([]float64, len(v))
	copy(cp, v)
	return cp, true
}

// Len returns the number of stored keys.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.data)
}

// Stats reports cumulative operation counts.
type Stats struct {
	Puts, Gets, Misses uint64
	BytesIn, BytesOut  uint64
}

// Stats returns a snapshot of the operation counters.
func (st *Store) Stats() Stats {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return Stats{Puts: st.puts, Gets: st.gets, Misses: st.misses, BytesIn: st.bytesIn, BytesOut: st.bytesOut}
}
