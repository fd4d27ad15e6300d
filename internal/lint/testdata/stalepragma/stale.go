// Package stalepragma seeds a suppression that rots: a well-formed pragma
// that no longer suppresses anything is a finding, so the allowed surface
// cannot silently grow.
package stalepragma

import "time"

// Fresh is covered: the pragma suppresses a real walltime finding and
// stays silent.
func Fresh() time.Time {
	//cescalint:allow walltime -- fixture: proves a live pragma stays silent
	return time.Now()
}

// Stale suppresses nothing: the wall-clock read it once guarded is gone.
func Stale(d time.Duration) time.Duration {
	//cescalint:allow walltime -- fixture: the guarded call was deleted
	return 2 * d
}
