package main

import (
	"bytes"
	"fmt"
	"testing"
)

// streamBytes renders the first n requests of a stream.
func streamBytes(t *testing.T, w *workload, seed uint64, n int) ([]byte, [numKinds]int) {
	t.Helper()
	s, err := newStream(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	var counts [numKinds]int
	for i := 0; i < n; i++ {
		k, r := s.at(uint64(i))
		counts[k]++
		fmt.Fprintf(&buf, "%s %s\n", kindPath[k], s.bodies[k][r])
	}
	return buf.Bytes(), counts
}

func TestStreamIsSeeded(t *testing.T) {
	const n = 50 * blockLen
	for _, w := range workloads {
		a, ca := streamBytes(t, w, 7, n)
		b, _ := streamBytes(t, w, 7, n)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different streams", w.name)
		}
		c, cc := streamBytes(t, w, 8, n)
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
		if ca != cc {
			t.Errorf("%s: endpoint mix changed with the seed: %v vs %v", w.name, ca, cc)
		}
		for k := kind(0); k < numKinds; k++ {
			if want := w.shares[k] * n / blockLen; ca[k] != want {
				t.Errorf("%s: %d %s requests, want %d", w.name, ca[k], kindName[k], want)
			}
		}
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// The seed ranks a fixed universe: every seed has the same set of
// distinct requests, in a different order.
func TestUniverseIsFixed(t *testing.T) {
	for _, w := range workloads {
		a, err := newStream(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newStream(w, 8)
		if err != nil {
			t.Fatal(err)
		}
		for k := kind(0); k < numKinds; k++ {
			set := make(map[string]bool)
			same := true
			for r, body := range a.bodies[k] {
				set[string(body)] = true
				same = same && bytes.Equal(body, b.bodies[k][r])
			}
			for _, body := range b.bodies[k] {
				if !set[string(body)] {
					t.Fatalf("%s %s: seed 8 has a request seed 7 lacks: %s", w.name, kindName[k], body)
				}
			}
			if same && len(a.bodies[k]) > 1 {
				t.Errorf("%s %s: seeds 7 and 8 rank the universe alike", w.name, kindName[k])
			}
		}
	}
}

// The rank → parameter map must be a bijection, or a universe would hold
// fewer distinct requests than it claims.
func TestUniverseItemsAreDistinct(t *testing.T) {
	for _, w := range workloads {
		s, err := newStream(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		for k := kind(0); k < numKinds; k++ {
			if space, u := paramSpace(w, k), w.universe[k]; u > 0 && (gcd(paramStride, space) != 1 || gcd(paramStride, u) != 1) {
				t.Errorf("%s %s: stride not coprime to space %d or universe %d", w.name, kindName[k], space, u)
			}
			seen := make(map[string]bool)
			for _, b := range s.bodies[k] {
				if seen[string(b)] {
					t.Errorf("%s %s: duplicate request %s", w.name, kindName[k], b)
					break
				}
				seen[string(b)] = true
			}
		}
	}
}
