package engine

import (
	"errors"
	"fmt"
)

// FaultClass classifies a harness-level fault.
type FaultClass int

// Fault classes.
const (
	// FaultPanic is a recovered Go panic from the interpreter or a sanitizer
	// runtime — a harness bug surfaced by the case, never legal behaviour.
	FaultPanic FaultClass = iota + 1
	// FaultStepBudget is an exhausted per-case instruction budget.
	FaultStepBudget
	// FaultWallBudget is a watchdog interrupt on the wall-clock budget.
	FaultWallBudget
	// FaultHeapBudget is an exceeded live-heap byte budget.
	FaultHeapBudget
)

// String returns the class name used in records and reports.
func (c FaultClass) String() string {
	switch c {
	case FaultPanic:
		return "panic"
	case FaultStepBudget:
		return "step-budget"
	case FaultWallBudget:
		return "wall-budget"
	case FaultHeapBudget:
		return "heap-budget"
	default:
		return "unknown-fault"
	}
}

// FaultOutcome is the structured record of a harness-level fault: the case
// produced no sanitizer verdict because the machine itself was stopped — a
// recovered panic or an exhausted resource budget. It is distinct from both
// sanitizer reports (Result.Violation) and simulated program crashes
// (Result.Fault): those are outcomes of the program, this is an outcome of
// the harness. It lands in Result.Err so every existing consumer already
// treats it as "no verdict"; classifiers unwrap it with AsFault.
type FaultOutcome struct {
	// Class says what stopped the machine.
	Class FaultClass
	// PanicValue is the stringified panic payload (FaultPanic only).
	PanicValue string
	// Stack is the recovered goroutine stack (FaultPanic only). It carries
	// addresses, so deterministic records must not include it.
	Stack string
	// Retried reports that the case was re-run on a fresh, never-pooled
	// runtime after faulting on a recycled one.
	Retried bool
	// Deterministic reports the fault is attributable to the case itself:
	// it happened on (or reproduced on) a fresh runtime, ruling out pooled
	// state corrupted by an earlier case. Budget faults whose trigger cannot
	// depend on pool state are deterministic by construction.
	Deterministic bool
	// Err is the underlying cause (budget sentinel or interp.PanicError).
	Err error
}

// Error implements the error interface.
func (f *FaultOutcome) Error() string {
	if f.Class == FaultPanic {
		return fmt.Sprintf("engine: fault (%s): %s", f.Class, f.PanicValue)
	}
	return fmt.Sprintf("engine: fault (%s): %v", f.Class, f.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (f *FaultOutcome) Unwrap() error { return f.Err }

// AsFault extracts the FaultOutcome from a run error, or nil if the error is
// not (wrapping) one.
func AsFault(err error) *FaultOutcome {
	if err == nil {
		return nil
	}
	if fo, ok := err.(*FaultOutcome); ok {
		return fo
	}
	var fo *FaultOutcome
	if errors.As(err, &fo) {
		return fo
	}
	return nil
}
