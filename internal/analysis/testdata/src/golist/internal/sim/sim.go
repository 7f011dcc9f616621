// Package sim plants one finding for each of two per-package analyzers.
package sim

// Total sums the map's values.
func Total(m map[string]int) int {
	n := 0
	for _, v := range m { // want `range over map m`
		n += v
	}
	return n
}

func Undocumented() {} // want `exported identifier Undocumented has no doc comment`
