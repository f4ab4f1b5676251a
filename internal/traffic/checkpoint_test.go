package traffic

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cecsan/internal/checkpoint"
)

// loadServeCheckpoint reads the snapshot a partial campaign left behind.
func loadServeCheckpoint(t *testing.T, path string) *ServeCheckpoint {
	t.Helper()
	var ck ServeCheckpoint
	if err := checkpoint.Load(path, checkpoint.KindServe, &ck); err != nil {
		t.Fatalf("load checkpoint: %v", err)
	}
	return &ck
}

// runPartial runs a checkpointed chaos campaign and aborts it (the
// in-process stand-in for kill -9: the campaign simply never reaches its
// end, and all that survives is the last on-disk snapshot) once roughly
// stopAfter requests have been processed.
func runPartial(t *testing.T, spec *Spec, ckpt string, workers, maxReq, every, stopAfter int, chaosSeed uint64) {
	t.Helper()
	stop := make(chan struct{})
	var once sync.Once
	_, err := Serve(ServeConfig{
		Spec:            spec,
		Workers:         workers,
		MaxRequests:     maxReq,
		ChaosSeed:       chaosSeed,
		CheckpointPath:  ckpt,
		CheckpointEvery: every,
		Stop:            stop,
		Progress: func(done int) {
			if done >= stopAfter {
				once.Do(func() { close(stop) })
			}
		},
	})
	if err != nil {
		t.Fatalf("partial run: %v", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("partial run left no checkpoint: %v", err)
	}
}

// TestServeCheckpointResume is the kill-resume digest-equality proof at
// the library level: a chaos campaign interrupted at randomized points and
// resumed from its last snapshot must land on stream and chaos digests
// byte-identical to an uninterrupted reference run — at 1 and 4 workers,
// with interruption points, snapshot cadences and resume worker counts
// varied independently (the digests are worker-count-independent by the
// chaos campaign's design, and resume must preserve that).
func TestServeCheckpointResume(t *testing.T) {
	spec := mustParse(t, serveSpec)
	const maxReq = 700
	const chaosSeed = 9

	ref, err := Serve(ServeConfig{Spec: spec, Workers: 2, MaxRequests: maxReq, ChaosSeed: chaosSeed})
	if err != nil {
		t.Fatal(err)
	}
	if ref.ChaosDigest == "" {
		t.Fatal("reference run produced no chaos digest")
	}

	trials := []struct {
		name          string
		every         int
		stopAfter     int
		workers       int
		resumeWorkers int
	}{
		{"early cut, 1 worker", 40, 256, 1, 1},
		{"early cut, 4 workers", 75, 256, 4, 4},
		{"late cut, cross workers", 100, 512, 1, 4},
		{"fine cadence", 25, 256, 4, 1},
	}
	for _, tr := range trials {
		t.Run(tr.name, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "serve.ckpt")
			runPartial(t, spec, ckpt, tr.workers, maxReq, tr.every, tr.stopAfter, chaosSeed)
			saved := loadServeCheckpoint(t, ckpt)
			if saved.Stream.Count == 0 || saved.Stream.Count >= maxReq {
				t.Fatalf("snapshot not mid-campaign: stream count %d of %d", saved.Stream.Count, maxReq)
			}

			res, err := Serve(ServeConfig{
				Spec:        spec,
				Workers:     tr.resumeWorkers,
				MaxRequests: maxReq,
				ChaosSeed:   chaosSeed,
				Resume:      saved,
			})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if res.StreamDigest != ref.StreamDigest {
				t.Fatalf("stream digest diverged after resume:\n%s\nvs reference\n%s", res.StreamDigest, ref.StreamDigest)
			}
			if res.ChaosDigest != ref.ChaosDigest {
				t.Fatalf("chaos digest diverged after resume:\n%s\nvs reference\n%s", res.ChaosDigest, ref.ChaosDigest)
			}
			if res.Generated != ref.Generated {
				t.Fatalf("generated = %d after resume, reference %d", res.Generated, ref.Generated)
			}
		})
	}
}

// TestServeCheckpointResumePlain covers the non-chaos shared-queue path:
// stream digest and end-to-end accounting must line up after a resume.
func TestServeCheckpointResumePlain(t *testing.T) {
	spec := mustParse(t, serveSpec)
	const maxReq = 500

	ref, err := Serve(ServeConfig{Spec: spec, Workers: 2, MaxRequests: maxReq})
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "serve.ckpt")
	runPartial(t, spec, ckpt, 2, maxReq, 60, 256, 0)
	saved := loadServeCheckpoint(t, ckpt)

	res, err := Serve(ServeConfig{Spec: spec, Workers: 2, MaxRequests: maxReq, Resume: saved})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.StreamDigest != ref.StreamDigest {
		t.Fatalf("stream digest diverged after plain resume:\n%s\nvs\n%s", res.StreamDigest, ref.StreamDigest)
	}
	if res.Generated != ref.Generated || res.Admitted != ref.Admitted {
		t.Fatalf("accounting diverged: generated %d/%d admitted %d/%d",
			res.Generated, ref.Generated, res.Admitted, ref.Admitted)
	}
	if got := res.Completed + res.Faults; got != res.Admitted {
		t.Fatalf("admitted = %d but completed+faults = %d after resume", res.Admitted, got)
	}
}

// TestServeResumeValidation: a snapshot resumed under the wrong identity
// (seed, chaos seed, spec) must fail loudly before any request runs.
func TestServeResumeValidation(t *testing.T) {
	spec := mustParse(t, serveSpec)
	ckpt := filepath.Join(t.TempDir(), "serve.ckpt")
	runPartial(t, spec, ckpt, 2, 500, 60, 256, 9)
	saved := loadServeCheckpoint(t, ckpt)

	bad := []struct {
		name string
		cfg  ServeConfig
	}{
		{"wrong seed", ServeConfig{Spec: spec, Seed: 12345, MaxRequests: 500, ChaosSeed: 9, Resume: saved}},
		{"wrong chaos seed", ServeConfig{Spec: spec, MaxRequests: 500, ChaosSeed: 10, Resume: saved}},
		{"chaos dropped", ServeConfig{Spec: spec, MaxRequests: 500, Resume: saved}},
		{"different spec", ServeConfig{Spec: mustParse(t, twoClassSpec), MaxRequests: 500, ChaosSeed: 9, Resume: saved}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Serve(tc.cfg); err == nil {
				t.Fatal("resume must reject a mismatched checkpoint")
			}
		})
	}
}

// TestServeCheckpointWriteFailureIsFatal: a campaign that cannot write its
// promised snapshots must fail, not silently continue uncheckpointed.
func TestServeCheckpointWriteFailureIsFatal(t *testing.T) {
	spec := mustParse(t, serveSpec)
	_, err := Serve(ServeConfig{
		Spec:            spec,
		Workers:         2,
		MaxRequests:     300,
		CheckpointPath:  filepath.Join(t.TempDir(), "no-such-dir", "serve.ckpt"),
		CheckpointEvery: 50,
	})
	if err == nil {
		t.Fatal("unwritable checkpoint path must fail the campaign")
	}
}

// TestServeResumeCommittedCheckpoint resumes a snapshot written by an
// earlier build of this package (testdata/serve-chaos.ckpt: the serveSpec
// chaos campaign, seed 9, 700 requests, cut at 200), so a change to the
// checkpoint JSON that old snapshots no longer load into shows up here.
// The resumed campaign must match an uninterrupted one in both digests and
// in every request-counted total.
func TestServeResumeCommittedCheckpoint(t *testing.T) {
	spec := mustParse(t, serveSpec)
	cfg := ServeConfig{Spec: spec, Workers: 2, MaxRequests: 700, ChaosSeed: 9}
	ref, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Resume = loadServeCheckpoint(t, filepath.Join("testdata", "serve-chaos.ckpt"))
	if cfg.Resume.Classes[1].Counters.Retries == 0 {
		t.Fatal("committed checkpoint lost its batch retries: counter JSON tags moved")
	}
	res, err := Serve(cfg)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.StreamDigest != ref.StreamDigest || res.ChaosDigest != ref.ChaosDigest {
		t.Fatalf("digests after resume %s/%s, uninterrupted %s/%s",
			res.StreamDigest, res.ChaosDigest, ref.StreamDigest, ref.ChaosDigest)
	}
	// Good and DeadlineMisses follow the wall clock; the rest is a pure
	// function of (spec, seed, chaos seed).
	counted := func(c Counters) Counters {
		c.Good, c.DeadlineMisses = 0, 0
		return c
	}
	if got, want := counted(res.Counters), counted(ref.Counters); got != want {
		t.Fatalf("resumed totals %+v, uninterrupted %+v", got, want)
	}
}
