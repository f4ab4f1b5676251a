package main

import "testing"

// TestSpeedometer samples the calibration loop on every processor at once
// and checks that a unit's scale lies between the samples around it, less
// at most the stolen share refScale allows.
func TestSpeedometer(t *testing.T) {
	s := newSpeedometer()
	s.sample()
	s.sample()
	lo, hi := min(s.rates[0], s.rates[1]), max(s.rates[0], s.rates[1])
	if len(s.rates) != 2 || lo <= 0 {
		t.Fatalf("rates %v", s.rates)
	}
	if got := s.refScale() * refRate; got < lo/2 || got > hi {
		t.Fatalf("scale x refRate = %g, samples %v", got, s.rates)
	}
}
