package relational

import (
	"fmt"
	"math"
	"testing"
)

// fmtValueKey is valueKey as it was written with fmt: the renderings
// appendValueKey must reproduce byte for byte.
func fmtValueKey(v Value) string {
	switch x := v.(type) {
	case nil:
		return "∅"
	case float64:
		if x == float64(int64(x)) {
			return fmt.Sprintf("i%d", int64(x))
		}
		return fmt.Sprintf("f%g", x)
	case int:
		return fmt.Sprintf("i%d", x)
	case int64:
		return fmt.Sprintf("i%d", x)
	case bool:
		return fmt.Sprintf("b%t", x)
	default:
		return "s" + fmt.Sprintf("%v", x)
	}
}

// valueKeyFloatBits are the float64 bit patterns where %g and
// strconv.AppendFloat could part: signed zeros, infinities, NaN payloads,
// subnormals, the extremes, the exponent switch points of %g (1e-5, 1e-4,
// 1e20, 1e21) and integral values at and beyond ±2^63, where the int64
// conversion of the integral test leaves its range.
var valueKeyFloatBits = []uint64{
	0x0000000000000000, // +0
	0x8000000000000000, // -0
	0x7ff0000000000000, // +Inf
	0xfff0000000000000, // -Inf
	0x7ff8000000000000, // quiet NaN
	0x7ff8000000000001, // NaN with a payload
	0x7ff0000000000001, // signalling NaN
	0xfff8000000000000, // negative NaN
	0xffffffffffffffff, // all-ones NaN
	0x0000000000000001, // smallest subnormal
	0x000fffffffffffff, // largest subnormal
	0x8000000000000001, // smallest negative subnormal
	0x0010000000000000, // smallest normal
	math.Float64bits(math.MaxFloat64),
	math.Float64bits(-math.MaxFloat64),
	math.Float64bits(1e-5),
	math.Float64bits(1e-4),
	math.Float64bits(0.5e-4),
	math.Float64bits(1e20),
	math.Float64bits(1e21),
	math.Float64bits(123456789012345678901.0),
	math.Float64bits(0.1),
	math.Float64bits(12.5),
	math.Float64bits(-3),
	math.Float64bits(1 << 53),
	math.Float64bits(1<<53 + 2),
	math.Float64bits(1 << 63),                            // 2^63: beyond int64
	math.Float64bits(-(1 << 63)),                         // -2^63: math.MinInt64
	math.Float64bits(math.Nextafter(1<<63, 0)),           // the largest below 2^63
	math.Float64bits(math.Nextafter(-(1 << 63), -1e300)), // the first below -2^63
	math.Float64bits(1 << 64),
	math.Float64bits(-(1 << 64)),
}

// nonJSONValue is a kind no JSON decoder yields, rendered through %v.
type nonJSONValue struct {
	A int
	B string
}

// TestValueKeyMatchesFmt holds appendValueKey to the fmt renderings it
// replaced for every value kind: float64 at the bit patterns above, int and
// int64 at their extremes, bools, strings and kinds outside JSON's.
func TestValueKeyMatchesFmt(t *testing.T) {
	values := []Value{nil, true, false, "", "x", "∅", "12", "a\x1fb", "\xff", 0, -1, math.MaxInt, math.MinInt,
		int64(0), int64(math.MaxInt64), int64(math.MinInt64), int32(7), float32(1.5), uint64(math.MaxUint64),
		[]any{1.0, "x"}, map[string]any{"q": 1.0}, nonJSONValue{1, "b"}, &nonJSONValue{}}
	for _, bits := range valueKeyFloatBits {
		values = append(values, math.Float64frombits(bits))
	}
	for _, v := range values {
		checkValueKey(t, v)
	}
}

// FuzzValueKey holds appendValueKey to the fmt renderings on fuzzed float64
// bit patterns, ints, bools and strings, and on one kind outside JSON's. The
// corpus under testdata/fuzz/FuzzValueKey carries the bit patterns of
// valueKeyFloatBits' edge cases.
func FuzzValueKey(f *testing.F) {
	f.Add(uint64(0), int64(0), false, "")
	f.Add(math.Float64bits(1e21), int64(math.MinInt64), true, "∅")
	f.Fuzz(func(t *testing.T, bits uint64, n int64, b bool, s string) {
		for _, v := range []Value{math.Float64frombits(bits), int(n), n, b, s, nonJSONValue{int(n), s}} {
			checkValueKey(t, v)
		}
	})
}

func checkValueKey(t *testing.T, v Value) {
	t.Helper()
	want := fmtValueKey(v)
	if got := string(appendValueKey([]byte("prefix"), v)); got != "prefix"+want {
		t.Errorf("appendValueKey(%#v) = %q, want %q", v, got[len("prefix"):], want)
	}
	if got := valueKey(v); got != want {
		t.Errorf("valueKey(%#v) = %q, want %q", v, got, want)
	}
}
