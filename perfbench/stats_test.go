package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	approx := func(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

	// Symmetric samples have their median at the centre.
	if got := (sample{1, 2, 3, 4, 5}).median(); !approx(got, 3, 1e-9) {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
	if got := (sample{7}).quantile(0.99); got != 7 {
		t.Errorf("p99 of {7} = %v, want 7", got)
	}
	if got := (sample{}).quantile(0.5); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}

	// On 1..1000 every quantile is close to its rank, and monotone.
	var s sample
	for i := 1; i <= 1000; i++ {
		s = append(s, float64(i))
	}
	prev := 0.0
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := s.quantile(q)
		if !approx(got, q*1001, 2) || got <= prev {
			t.Errorf("quantile(%v) of 1..1000 = %v, want about %v", q, got, q*1001)
		}
		prev = got
	}

	// Weights sum to one: a constant sample has that constant everywhere.
	c := sample{4, 4, 4, 4, 4, 4, 4, 4}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got := c.quantile(q); !approx(got, 4, 1e-9) {
			t.Errorf("quantile(%v) of constant 4 = %v", q, got)
		}
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]int64{{0, 10}, {5, 15}, {20, 30}, {-5, 2}}
	if got := covered(iv, 0, 25); got != 20 {
		t.Errorf("covered = %d, want 20", got)
	}
}

func TestCompare(t *testing.T) {
	want := answer{{int64(1), 2.0000001, "x", nil}}
	if err := compare(answer{{int64(1), 2.0, "x", nil}}, want); err != nil {
		t.Errorf("float within tolerance: %v", err)
	}
	if err := compare(answer{{int64(1), 2.1, "x", nil}}, want); err == nil {
		t.Error("float outside tolerance compared equal")
	}
	if err := compare(answer{{2.0, 2.0000001, "x", nil}}, answer{{int64(2), 2.0000001, "x", nil}}); err != nil {
		t.Errorf("integral JSON number against int: %v", err)
	}
	if err := compare(answer{{int64(1_900_001)}}, answer{{int64(1_900_000)}}); err == nil {
		t.Error("integers one apart compared equal")
	}
	if err := compare(nil, want); err == nil {
		t.Error("missing row compared equal")
	}
}
