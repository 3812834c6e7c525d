// Package malformed exercises //ncsw:allow hygiene: a directive with
// no reason, or naming an unknown analyzer, is a finding of its own
// and never suppresses anything, and one that suppresses nothing is a
// stale finding.
package malformed

import "time"

func missingReason() time.Time {
	// want-below `missing reason`
	//ncsw:allow walltime
	return time.Now() // want `time\.Now reads the wall clock`
}

func unknownAnalyzer() time.Time {
	// want-below `unknown analyzer "walltmie"`
	//ncsw:allow walltmie the analyzer name is typoed
	return time.Now() // want `time\.Now reads the wall clock`
}

func bareDirective() time.Time {
	// want-below `missing analyzer name and reason`
	//ncsw:allow
	return time.Now() // want `time\.Now reads the wall clock`
}

func staleDirective() int {
	// want-below `stale //ncsw:allow walltime directive`
	//ncsw:allow walltime nothing below reads the clock any more
	return 1
}
