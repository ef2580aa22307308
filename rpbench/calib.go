package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// calib.go measures the host's speed in each run, so that every time and
// rate can be reported at a fixed reference speed. The host this benchmark
// was built on, a 2-vCPU VM, slows by 15–35 % for minutes at a time with
// its co-tenants' load; fixed kernels, which no change to the program can
// alter, slow by the same share in the same phases (README.md, "Host
// speed", has the measurements).

// refCalibMS is the geometric mean of the kernels' median times, in
// milliseconds, on the reference host (2 vCPUs of an Intel Xeon, family 6
// model 143, in a fast phase). A run whose kernels read exactly this runs
// at speed 1 and reports its timings unchanged.
const refCalibMS = 38.7

// calibData is the kernels' input, built once: the kernels themselves
// allocate nothing.
type calibData struct {
	floats  [][]float64 // per worker: a fixed random slice (512 KiB)
	scratch [][]float64 // per worker: where it is sorted
	chains  [][]uint32  // per worker: one random cycle through 16 MiB
}

var (
	calibOnce sync.Once
	calib     calibData
	calibSink [64]uint64 // one cache line per worker, kept so no loop is dead
)

func calibInit(workers int) {
	calibOnce.Do(func() {
		for w := 0; w < workers; w++ {
			rng := rand.New(rand.NewSource(int64(w) + 1))
			fs := make([]float64, 1<<16)
			for i := range fs {
				fs[i] = rng.Float64()
			}
			calib.floats = append(calib.floats, fs)
			calib.scratch = append(calib.scratch, make([]float64, len(fs)))
			perm := rng.Perm(1 << 22)
			c := make([]uint32, len(perm))
			for i := range perm {
				c[perm[i]] = uint32(perm[(i+1)%len(perm)])
			}
			calib.chains = append(calib.chains, c)
		}
	})
}

// kernels are the calibration workloads, each run once on every worker at
// the same time: a branchy integer dependency chain (the core), sorting a
// slice that fits in L2 (branches and L2), and a pointer chase through a
// cycle larger than L2 (the shared cache and memory).
var kernels = []struct {
	name string
	run  func(worker int)
}{
	{"chain", func(w int) {
		x := uint64(w + 1)
		for i := 0; i < 8_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if x&1 == 0 {
				x += uint64(i)
			}
		}
		calibSink[w*8%len(calibSink)] += x
	}},
	{"sort", func(w int) {
		for k := 0; k < 4; k++ {
			copy(calib.scratch[w], calib.floats[w])
			sort.Float64s(calib.scratch[w])
		}
	}},
	{"chase", func(w int) {
		c := calib.chains[w]
		p := uint32(0)
		for i := 0; i < 300_000; i++ {
			p = c[p]
		}
		calibSink[w*8%len(calibSink)] += uint64(p)
	}},
}

// calibrate finishes any garbage collection the workload left running, so
// it cannot take a worker from the kernels, then times each kernel three
// times on GOMAXPROCS workers at once.
func (r *run) calibrate() {
	workers := runtime.GOMAXPROCS(0)
	calibInit(workers)
	runtime.GC()
	for rep := 0; rep < 3; rep++ {
		for _, k := range kernels {
			var wg sync.WaitGroup
			t := time.Now()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					k.run(w)
				}(w)
			}
			wg.Wait()
			r.calib[k.name] = append(r.calib[k.name], millis(time.Since(t)))
		}
	}
}

// hostSlowdown is the run's slowdown against the reference: the geometric
// mean of the kernels' median times over refCalibMS.
func (r *run) hostSlowdown() float64 {
	logSum := 0.0
	for _, k := range kernels {
		logSum += math.Log(median(r.calib[k.name]))
	}
	return math.Exp(logSum/float64(len(kernels))) / refCalibMS
}
