package main

import (
	"crypto/sha256"
	"math"
	"runtime"
	"sort"
)

// The CPU-time metrics are given at a reference speed. On a shared
// virtual machine the host's other guests slow the CPU itself (shared
// cores, caches and memory), by up to a third for minutes at a time, and
// CPU time per unit of work rises with it; steal accounting does not
// remove that. Each run therefore also times a fixed computation of the
// benchmark's own, the yardstick, between its phases, and scales
// setup_s, cpu_us_per_req, predict_replay_s and substrate_replay_s by
// yardstickRefS over the run's median yardstick time. A change to the
// program moves the figures and not the yardstick; a slower host moves
// both. The unscaled figures are printed too, with the suffix ".raw".

// yardstickRefS is the yardstick's CPU time on the reference machine:
// a 2-vCPU KVM guest on an Intel Xeon host, Go 1.24, with the host quiet.
const yardstickRefS = 0.006

// yardstickReps is how many times each sample call times the yardstick.
const yardstickReps = 10

// yardstick is the fixed computation: float arithmetic, map updates, a
// sort and hashing, about 6 ms of CPU on the reference machine. Its
// buffers are reused, so that it allocates nothing and its time does not
// depend on how much the process holds for the collector.
type yardstick struct {
	m  map[int]float64
	xs []float64
	b  []byte
}

func newYardstick() *yardstick {
	return &yardstick{m: make(map[int]float64, 8192), xs: make([]float64, 0, 30000), b: make([]byte, 1<<16)}
}

// run does the work once and returns a value that depends on all of it,
// so that none is optimised away.
func (y *yardstick) run() float64 {
	clear(y.m)
	clear(y.b)
	y.xs = y.xs[:0]
	x := 1.0
	for i := 0; i < 30000; i++ {
		x = math.Mod(x*1.000123+0.5, 1000)
		y.m[i%7000] += x
		y.xs = append(y.xs, x)
	}
	sort.Float64s(y.xs)
	for i := 0; i < 20; i++ {
		s := sha256.Sum256(y.b)
		y.b[i] = s[0]
	}
	return y.xs[100] + y.m[5] + float64(y.b[3])
}

// speedGauge collects a run's yardstick times.
type speedGauge struct {
	y       *yardstick
	samples []float64
	sink    float64
}

func newSpeedGauge() *speedGauge { return &speedGauge{y: newYardstick()} }

// sample times the yardstick yardstickReps times, each on one P after a
// collection, as the timed replays run.
func (g *speedGauge) sample() {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for k := 0; k < yardstickReps; k++ {
		runtime.GC()
		start := selfCPUSeconds()
		g.sink += g.y.run()
		g.samples = append(g.samples, selfCPUSeconds()-start)
	}
}

// scale returns the factor that takes the run's CPU times to the
// reference speed: yardstickRefS over the median yardstick time.
func (g *speedGauge) scale() float64 {
	if m := median(g.samples); m > 0 {
		return yardstickRefS / m
	}
	return 1
}

// report scales the CPU-time metrics to the reference speed, keeping the
// measured values under name+".raw", and records the yardstick time as
// bench.yardstick_us.
func (g *speedGauge) report(res *result) {
	f := g.scale()
	for _, name := range []string{"setup_s", "cpu_us_per_req", "predict_replay_s", "substrate_replay_s"} {
		if m, found := res.metrics[name]; found {
			res.metrics[name+".raw"] = m
			m.Value *= f
			res.metrics[name] = m
		}
	}
	res.set("bench.yardstick_us", 1e6*median(g.samples), "us", len(g.samples))
}
