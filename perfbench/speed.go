package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The host's speed moves with the other tenants' load, by a fifth or more
// between runs a minute apart, and a throughput measured in wall seconds
// moves with it. So each workload runs a fixed calibration loop between
// its units of work and reports its throughput per reference second too:
// the throughput it would have had with the loop running at refRate.
//
// The loop is a small bytecode interpreter of its own: a pseudo-random
// opcode stream dispatched through a switch, with loads and stores into a
// 512 KB table that stays in the core's L2 cache. Like the program under
// test it is branchy integer code, so its rate follows the clock and the
// core's contention with other tenants; it shares no code with the
// program, so nothing a change to the program does moves it.

// refRate is the calibration loop's rate, in steps per second, that a
// reference second stands for: about its rate on the 2 vCPU Xeon VM the
// benchmark was written on.
const refRate = 7.0e7

const (
	calSteps  = 1 << 16 // steps per burst, about 1 ms
	calBursts = 15      // bursts per sample; the sample is their median rate
	calMask   = 1<<17 - 1
)

// calTables are the loop's tables, one per processor it runs on at once.
// They are static, so they stay out of the heap the workloads report.
var (
	calTables [8][calMask + 1]uint32
	calSink   atomic.Uint32
)

// calBurst runs one burst of the calibration loop on calTable.
func calBurst(calTable *[calMask + 1]uint32) {
	x := uint64(12345)
	var acc uint32
	for i := 0; i < calSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		a := uint32(x>>32) & calMask
		switch x >> 61 {
		case 0:
			acc += calTable[a]
		case 1:
			calTable[a] = acc
		case 2:
			acc ^= acc << 3
		case 3:
			acc = acc*31 + calTable[a]
		case 4:
			if acc&1 == 0 {
				acc >>= 1
			} else {
				acc = acc*3 + 1
			}
		case 5:
			calTable[a] += 7
		case 6:
			acc -= calTable[(a*17)&calMask]
		case 7:
			acc |= 1
		}
	}
	calSink.Add(acc)
}

// speedometer samples the calibration loop's rate between units of work,
// on every processor at once, and reads the host's steal time. The
// workloads keep both processors busy, or move their one busy goroutine
// between them, so the loop runs on all of them. Call sample once before
// the first unit and once after each unit.
type speedometer struct {
	tables []*[calMask + 1]uint32 // one per processor
	rates  []float64
	at     []time.Time
	stolen []float64 // steal seconds so far, summed over processors
}

func newSpeedometer() *speedometer {
	s := &speedometer{}
	for p := range min(runtime.GOMAXPROCS(0), len(calTables)) {
		s.tables = append(s.tables, &calTables[p])
	}
	return s
}

// sample runs the loop on each processor and records the mean of their
// median burst rates. It first finishes any collection the unit left
// running, so no collector worker shares a processor with the loop and
// the program's garbage cannot move the sample.
func (s *speedometer) sample() {
	runtime.GC()
	rates := make([]float64, len(s.tables))
	var wg sync.WaitGroup
	for p, table := range s.tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bursts := make([]float64, calBursts)
			for i := range bursts {
				t0 := time.Now()
				calBurst(table)
				bursts[i] = calSteps / time.Since(t0).Seconds()
			}
			rates[p] = median(bursts)
		}()
	}
	wg.Wait()
	var sum float64
	for _, r := range rates {
		sum += r
	}
	s.rates = append(s.rates, sum/float64(len(rates)))
	s.at = append(s.at, time.Now())
	s.stolen = append(s.stolen, stealSeconds())
}

// stolenShare is the share of the processors' time the hypervisor gave to
// other machines between samples i and j.
func (s *speedometer) stolenShare(i, j int) float64 {
	span := s.at[j].Sub(s.at[i]).Seconds() * float64(runtime.NumCPU())
	if span <= 0 {
		return 0
	}
	return min(max((s.stolen[j]-s.stolen[i])/span, 0), 0.5)
}

// refScale converts the wall seconds of the unit that ended with the
// latest sample to reference seconds. The loop's rate over the unit is the
// mean of the samples taken just before and just after it. Each sample is
// a median of short bursts, so it leaves out the time the hypervisor gave
// the processors to other machines; the unit's wall seconds are scaled by
// the share of processor time between the samples that was not stolen.
func (s *speedometer) refScale() float64 {
	n := len(s.rates)
	return (1 - s.stolenShare(n-2, n-1)) * (s.rates[n-2] + s.rates[n-1]) / 2 / refRate
}

// stealSeconds returns the steal time of all processors from /proc/stat,
// or 0 where the system does not report it.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / clockTicks
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/stat.
const clockTicks = 100

// setThroughput records a run's throughput in operations per wall second
// and per reference second, each the median over its units, the
// calibration loop's median rate and the share of processor time stolen.
func setThroughput(l *ledger, perS, perRefS []float64, s *speedometer) {
	l.set("ops_per_s", median(perS), "ops/s")
	l.set("ops_per_ref_s", median(perRefS), "ops/ref_s")
	l.set("machine.cal_rate", median(s.rates), "1/s")
	l.set("machine.steal_share", s.stolenShare(0, len(s.rates)-1), "fraction")
	l.notes["ops_per_s_samples"] = perS
	l.notes["cal_rate_samples"] = s.rates
}
