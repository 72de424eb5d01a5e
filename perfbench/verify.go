package main

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/problems"
)

// errWrongSolution marks a solved job whose solution fails the output
// check; it ends the run.
var errWrongSolution = errors.New("wrong solution")

// verifier is implemented by problems with an independent solution
// check.
type verifier interface {
	Verify(cfg []int) bool
}

// verifySolution re-checks sol on a freshly built instance: it must be
// a well-formed configuration, cost 0, and pass Verify where the
// problem type has it. A failure wraps errWrongSolution.
func verifySolution(problem string, size int, params map[string]int, sol []int) error {
	p, err := problems.NewWithParams(problem, size, params)
	if err != nil {
		return fmt.Errorf("verifying %s-%d: %w", problem, size, err)
	}
	if len(sol) != p.Size() {
		return fmt.Errorf("%w: %s-%d: %d values for %d variables", errWrongSolution, problem, size, len(sol), p.Size())
	}
	if fd, ok := p.(core.FDProblem); ok {
		err = core.ValidateFDConfig(fd, sol)
	} else {
		err = perm.Validate(sol)
	}
	if err != nil {
		return fmt.Errorf("%w: %s-%d: %v", errWrongSolution, problem, size, err)
	}
	if c := p.Cost(sol); c != 0 {
		return fmt.Errorf("%w: %s-%d: cost %d", errWrongSolution, problem, size, c)
	}
	if v, ok := p.(verifier); ok && !v.Verify(sol) {
		return fmt.Errorf("%w: %s-%d: Verify rejects it", errWrongSolution, problem, size)
	}
	return nil
}
