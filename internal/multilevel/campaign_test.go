package multilevel

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"amdahlyd/internal/costmodel"
)

func testSimulator(t testing.TB) *Simulator {
	t.Helper()
	c := heraCosts()
	lf, ls := heraRates(512)
	s, err := NewSimulator(c, Pattern{T: 6000, K: 3}, lf, ls)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCampaignWorkerCountIndependent pins the bit-independence contract:
// per-run Split(i) streams make the campaign statistics identical at any
// worker count (run under -race, this also exercises concurrent Split on
// the shared master).
func TestCampaignWorkerCountIndependent(t *testing.T) {
	s := testSimulator(t)
	base := CampaignConfig{Runs: 64, Patterns: 40, Seed: 11, HOfP: 0.1}
	var (
		mu      sync.Mutex
		results []CampaignResult
		wg      sync.WaitGroup
	)
	for _, workers := range []int{1, 2, 5, 16} {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cfg := base
			cfg.Workers = w
			res, err := s.SimulateContext(context.Background(), cfg)
			if err != nil {
				t.Errorf("workers=%d: %v", w, err)
				return
			}
			mu.Lock()
			results = append(results, res)
			mu.Unlock()
		}(workers)
	}
	wg.Wait()
	if len(results) < 4 {
		t.Fatal("missing results")
	}
	ref := results[0]
	for _, res := range results[1:] {
		if res.Overhead != ref.Overhead {
			t.Errorf("overhead summary differs across worker counts: %+v vs %+v",
				res.Overhead, ref.Overhead)
		}
		if res.FailStops != ref.FailStops || res.SilentDetections != ref.SilentDetections ||
			res.DiskRecoveries != ref.DiskRecoveries || res.MemRecoveries != ref.MemRecoveries {
			t.Errorf("event totals differ across worker counts")
		}
	}
}

// TestCampaignMatchesLegacySimulate: the Simulate wrapper and a parallel
// SimulateContext must summarize the identical sample.
func TestCampaignMatchesLegacySimulate(t *testing.T) {
	s := testSimulator(t)
	sum, err := s.Simulate(40, 30, 7, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SimulateContext(context.Background(), CampaignConfig{
		Runs: 40, Patterns: 30, Seed: 7, Workers: 8, HOfP: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overhead != sum {
		t.Errorf("parallel campaign %+v differs from sequential %+v", res.Overhead, sum)
	}
}

// TestCampaignCancellation: a pre-cancelled context must abort without
// running the campaign, and a cancellation mid-campaign must surface
// ctx.Err() promptly.
func TestCampaignCancellation(t *testing.T) {
	s := testSimulator(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SimulateContext(ctx, CampaignConfig{Runs: 8, Patterns: 8, Seed: 1, HOfP: 0.1}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled campaign returned %v, want context.Canceled", err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.SimulateContext(ctx2, CampaignConfig{
			Runs: 1 << 20, Patterns: 200, Seed: 1, Workers: 2, HOfP: 0.1,
		})
		done <- err
	}()
	cancel2()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled campaign returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled campaign did not return")
	}
}

func TestCampaignValidation(t *testing.T) {
	s := testSimulator(t)
	bg := context.Background()
	if _, err := s.SimulateContext(bg, CampaignConfig{Runs: -1, Patterns: 10, Seed: 1, HOfP: 0.1}); err == nil {
		t.Error("negative runs accepted")
	}
	// The hOfP regression: a NaN, zero or infinite H(P) used to flow
	// straight into the summary as NaN instead of erroring.
	for _, h := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := s.SimulateContext(bg, CampaignConfig{Runs: 4, Patterns: 4, Seed: 1, HOfP: h}); err == nil {
			t.Errorf("H(P) = %g accepted", h)
		}
		if _, err := s.Simulate(4, 4, 1, h); err == nil {
			t.Errorf("Simulate with H(P) = %g accepted", h)
		}
	}
}

// TestSimulateModelMatchesDerivation pins SimulateModel to the explicit
// derivation it replaces (costs at P, rates at P, H(P) from the model),
// bit for bit, and checks that a caller's HOfP never leaks through.
func TestSimulateModelMatchesDerivation(t *testing.T) {
	m := jointModel(t, costmodel.Scenario3, 0.1, 1.69e-8)
	const p, frac = 256, 1.0 / 15
	pat := Pattern{T: 5000, K: 3}
	costs, err := SingleLevelCosts(m, p, frac)
	if err != nil {
		t.Fatal(err)
	}
	lf, ls := m.Rates(p)
	s, err := NewSimulator(costs, pat, lf, ls)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CampaignConfig{Runs: 20, Patterns: 15, Seed: 5, Workers: 2}
	want, err := s.SimulateContext(context.Background(), CampaignConfig{
		Runs: cfg.Runs, Patterns: cfg.Patterns, Seed: cfg.Seed, Workers: cfg.Workers,
		HOfP: m.Profile.Overhead(p),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.HOfP = 123 // replaced by the model's H(P)
	got, err := SimulateModel(context.Background(), m, frac, pat, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("SimulateModel diverges from the explicit derivation:\n got %+v\nwant %+v", got, want)
	}
	if _, err := SimulateModel(context.Background(), m, -1, pat, p, cfg); err == nil {
		t.Error("out-of-range in-memory fraction accepted")
	}
	if _, err := SimulateModel(context.Background(), m, frac, Pattern{T: 5000}, p, cfg); err == nil {
		t.Error("K = 0 pattern accepted")
	}
}
