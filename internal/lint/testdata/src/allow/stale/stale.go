// Package fixallowstale is a poplint fixture for the allow audit: every
// rule a //poplint:allow lists must suppress a finding on the line the
// annotation covers.
package fixallowstale

import "time"

// Stamp carries a two-rule allow whose determinism half is load-bearing and
// whose maporder half suppresses nothing.
func Stamp() int64 {
	return time.Now().UnixNano() //poplint:allow determinism,maporder fixture pin: no map is ranged here
}

// Clock carries a standalone single-rule allow that suppresses its finding.
func Clock() int64 {
	//poplint:allow determinism fixture pin: the standalone form covers the next line
	return time.Now().UnixNano()
}
