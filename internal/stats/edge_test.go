package stats

import (
	"math"
	"testing"
)

func TestPercentileEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		vals []uint64
		p    float64
		want uint64
	}{
		{"empty", nil, 50, 0},
		{"empty zero-length", []uint64{}, 99, 0},
		{"single", []uint64{7}, 50, 7},
		{"p zero", []uint64{3, 1, 2}, 0, 1},
		{"p hundred", []uint64{3, 1, 2}, 100, 3},
		{"p over hundred clamps", []uint64{3, 1, 2}, 250, 3},
		{"p negative clamps", []uint64{3, 1, 2}, -10, 1},
		{"p NaN clamps to zero", []uint64{3, 1, 2}, math.NaN(), 1},
		{"p Inf clamps", []uint64{3, 1, 2}, math.Inf(1), 3},
		{"median of four", []uint64{40, 10, 30, 20}, 50, 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Percentile(tc.vals, tc.p); got != tc.want {
				t.Fatalf("Percentile(%v, %v) = %d, want %d", tc.vals, tc.p, got, tc.want)
			}
		})
	}
}
