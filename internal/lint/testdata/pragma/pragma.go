// Package pragmatest seeds malformed suppression pragmas for the driver's
// pragma-validation test: a misspelled analyzer or a missing reason is
// itself a finding, and a malformed pragma suppresses nothing.
package pragmatest

import "time"

// Suppressed carries a well-formed pragma: no walltime finding.
func Suppressed() time.Time {
	//cescalint:allow walltime -- seeded fixture: legitimate suppression
	return time.Now()
}

// Misspelled names an analyzer that does not exist, so the pragma is a
// finding and the time.Now below is still reported.
func Misspelled() time.Time {
	//cescalint:allow waltime -- typo in the analyzer name
	return time.Now()
}

// MissingReason omits the mandatory "-- <why>" tail.
func MissingReason() time.Time {
	//cescalint:allow walltime
	return time.Now()
}

// UnknownVerb uses a directive that is not "allow".
func UnknownVerb() time.Time {
	//cescalint:deny walltime -- no such directive
	return time.Now()
}

// RetiredAnnotation carries the function annotation of the static
// allocation analyzer this suite once had: now an unknown directive.
//
//cescalint:hotpath
func RetiredAnnotation() int { return 0 }

// RetiredWaiver names that analyzer in an allow-pragma: unknown as well.
func RetiredWaiver(n int) []int {
	//cescalint:allow hotpath -- amortized: grows once
	return make([]int, n)
}
