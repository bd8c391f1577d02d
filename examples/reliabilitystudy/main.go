// Reliability study: as processors become more reliable (λ_ind shrinks),
// how do the optimal allocation, the optimal period and the achievable
// overhead scale? A terminal-rendered miniature of Fig. 5 with the
// theorem exponents recovered by log-log regression.
//
//	go run ./examples/reliabilitystudy
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/experiments"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/report"
	"amdahlyd/internal/xmath"
)

func main() {
	cfg := experiments.Quick()
	cfg.Seed = 11
	lambdas := xmath.Logspace(1e-12, 1e-8, 5)

	res, err := experiments.Fig5Context(context.Background(), platform.Hera(), lambdas, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := res.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Println("Theorem exponents recovered from the numerical optimum:")
	slopes := res.Slopes()
	expect := map[costmodel.Scenario]struct{ p, t string }{
		costmodel.Scenario1: {"-1/4 (Thm 2)", "-1/2 (Thm 2)"},
		costmodel.Scenario3: {"-1/3 (Thm 3)", "-1/3 (Thm 3)"},
		costmodel.Scenario5: {"-1/3 (Thm 3)", "-1/3 (Thm 3)"},
	}
	for _, sc := range []costmodel.Scenario{costmodel.Scenario1, costmodel.Scenario3, costmodel.Scenario5} {
		s := slopes[sc]
		e := expect[sc]
		fmt.Printf("  %v: P* ~ λ^%+.3f (paper: %s), T* ~ λ^%+.3f (paper: %s)\n",
			sc, s.P, e.p, s.T, e.t)
	}
	fmt.Println()

	chart := report.Chart{
		Title:  "Optimal processor count vs individual error rate (cf. Fig. 5(a))",
		XLabel: "lambda_ind",
		YLabel: "P*",
		LogX:   true,
		LogY:   true,
	}
	if err := chart.Render(os.Stdout, res.PSeries()...); err != nil {
		log.Fatal(err)
	}
}
