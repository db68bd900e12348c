package gofront

import "testing"

// SetStepBudget lowers the step budget of every run for the rest of a test.
// Tests that call it must not run in parallel with other runs.
func SetStepBudget(t testing.TB, steps int64) {
	old := maxSteps
	maxSteps = steps
	t.Cleanup(func() { maxSteps = old })
}
