package mitigation

import "mopac/internal/rowtab"

// pracCounters holds one bank's per-row PRAC counters. A row's counter
// and the row both fit 31 bits, so a slot stays 8 bytes; a reset row
// reads 0 exactly as a never-activated one. Nothing ranges over the
// table, so its order never shows.
type pracCounters struct {
	t rowtab.Table[uint32, int32]
}

// get returns row's counter.
func (c *pracCounters) get(row int) int {
	if v := c.t.Get(uint32(row)); v != nil {
		return int(*v)
	}
	return 0
}

// add adds by to row's counter and returns the new value.
func (c *pracCounters) add(row, by int) int {
	v := c.t.Put(uint32(row))
	*v += int32(by)
	return int(*v)
}

// refreshVictims performs the counter bookkeeping of a victim refresh
// on behalf of row: the aggressor's counter resets and each victim
// within radius (inside [0, rows) when rows > 0) increments by one,
// because the victim refresh activates it (footnote 5 of the paper).
// It returns the first victim with the highest new counter, or -1 and
// 0 when row has no victims: victim increments participate in tracking
// like any other counter write.
func (c *pracCounters) refreshVictims(row, radius, rows int) (hot, hotCnt int) {
	if v := c.t.Get(uint32(row)); v != nil {
		*v = 0
	}
	hot = -1
	for d := 1; d <= radius; d++ {
		for _, v := range [2]int{row - d, row + d} {
			if v < 0 || (rows > 0 && v >= rows) {
				continue
			}
			if n := c.add(v, 1); n > hotCnt {
				hot, hotCnt = v, n
			}
		}
	}
	return hot, hotCnt
}
