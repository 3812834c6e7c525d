package usb

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// transferByProcess is the process-driven transfer Port.Transfer
// replaced, kept as the reference the callback chain must match: the
// caller sleeps through the setup latency, then acquires, sleeps
// through and releases every hop of every chunk itself — one resume
// for the setup and at least one per chunk per hop.
func transferByProcess(p *Port, proc *sim.Proc, n int) {
	if n < 0 {
		panic(fmt.Sprintf("usb: negative transfer size %d", n))
	}
	proc.Sleep(p.fabric.cfg.SetupLatency)
	chunk := p.fabric.cfg.ChunkBytes
	for moved := 0; moved < n; moved += chunk {
		sz := min(chunk, n-moved)
		for _, h := range p.path {
			h.res.Acquire(proc)
			d := durationFor(sz, h.bw)
			if p.slow > 1 {
				d = time.Duration(float64(d) * p.slow)
			}
			proc.Sleep(d)
			h.res.Release()
		}
	}
	p.bytesMoved += int64(n)
}

// fig5Run is what one driver did on the contended testbed.
type fig5Run struct {
	ends         []string // per transfer: port, index, end time
	acquisitions []int    // per resource, in path order of first use
	utilization  []float64
	events       uint64
	resumes      uint64
	bytes        []int64
}

// runFig5 drives all eight ports of the Fig. 5 testbed at once, each
// through its own rotation of sizes (0, below one chunk, exactly one
// and three chunks, one and three chunks plus a byte, and the input
// tensor and result sizes of a GoogLeNet inference), so the hubs and
// the root are contended. A slowdown lands mid-transfer on a hub port
// and on a direct port and is cleared mid-transfer later; the test
// fails if one of them finds its port idle. transfers reports how many
// transfers the run made.
func runFig5(t *testing.T, transfer func(*Port, *sim.Proc, int)) (run fig5Run, transfers int) {
	t.Helper()
	cfg := DefaultConfig()
	env := sim.NewEnv()
	_, ports, err := Testbed(env, cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg.ChunkBytes
	sizes := []int{0, c - 1, c, 3 * c, c + 1, 3*c + 1, 224 * 224 * 3 * 2, 2128, 1}
	busy := make([]bool, len(ports))
	for i, port := range ports {
		env.Process("xfer/"+port.Name(), func(p *sim.Proc) {
			for k := range 2 * len(sizes) {
				n := sizes[(i+k)%len(sizes)]
				busy[i] = true
				transfer(port, p, n)
				busy[i] = false
				run.ends = append(run.ends, fmt.Sprintf("%s#%d %dB end=%v", port.Name(), k, n, p.Now()))
				transfers++
				// Host-side gaps of a few sizes interleave the ports'
				// setups with each other's hops.
				p.Sleep(time.Duration((i+k)%3) * 50 * time.Microsecond)
			}
		})
	}
	fault := func(at time.Duration, i int, apply func(*Port)) {
		env.At(at, func() {
			if !busy[i] {
				t.Errorf("the fault at %v finds %s idle, so it does not land mid-transfer", at, ports[i].Name())
			}
			apply(ports[i])
		})
	}
	slow := func(p *Port) { p.InjectSlowdown(3) }
	clear := func(p *Port) { p.ClearSlowdown() }
	fault(2*time.Millisecond, 4, slow)
	fault(3*time.Millisecond, 1, slow)
	fault(9*time.Millisecond, 4, clear)
	fault(12*time.Millisecond, 1, clear)
	env.Run()

	var seen []*sim.Resource
	for _, port := range ports {
		for _, h := range port.path {
			if !slices.Contains(seen, h.res) {
				seen = append(seen, h.res)
			}
		}
		run.bytes = append(run.bytes, port.BytesMoved())
	}
	for _, r := range seen {
		run.acquisitions = append(run.acquisitions, r.Acquisitions())
		run.utilization = append(run.utilization, r.Utilization())
	}
	c2 := env.Counts()
	run.events, run.resumes = c2.Events, c2.Resumes
	return run, transfers
}

// TestTransferDriversAgree: the callback chain reproduces the
// process-driven transfer exactly on the contended Fig. 5 testbed —
// every transfer's end time, each hop's grants and utilization, the
// bytes per port and the kernel's event count — while resuming each
// caller once per transfer.
func TestTransferDriversAgree(t *testing.T) {
	want, transfers := runFig5(t, transferByProcess)
	got, _ := runFig5(t, (*Port).Transfer)
	if !slices.Equal(got.ends, want.ends) {
		for i := range min(len(got.ends), len(want.ends)) {
			if got.ends[i] != want.ends[i] {
				t.Fatalf("transfer %d: callbacks %s, process %s", i, got.ends[i], want.ends[i])
			}
		}
		t.Fatalf("callbacks made %d transfers, process %d", len(got.ends), len(want.ends))
	}
	if !slices.Equal(got.acquisitions, want.acquisitions) {
		t.Errorf("acquisitions %v, want %v", got.acquisitions, want.acquisitions)
	}
	if !slices.Equal(got.utilization, want.utilization) {
		t.Errorf("utilization %v, want %v", got.utilization, want.utilization)
	}
	if !slices.Equal(got.bytes, want.bytes) {
		t.Errorf("bytes moved %v, want %v", got.bytes, want.bytes)
	}
	if got.events != want.events {
		t.Errorf("events %d, want the process driver's %d", got.events, want.events)
	}
	// Each process resumes once to start, once per transfer and once
	// per host-side gap (a zero gap still yields).
	if wantResumes := uint64(8 + 2*transfers); got.resumes != wantResumes {
		t.Errorf("resumes %d, want %d (the process driver took %d)", got.resumes, wantResumes, want.resumes)
	}
}

// loopTransfers starts one process per port of an 8-stick testbed
// that moves n-byte transfers back to back, counting *left down, and
// parks on the returned gate whenever it finds *left at 0.
func loopTransfers(tb testing.TB, env *sim.Env, n int, left *int) *sim.Queue[struct{}] {
	_, ports, err := Testbed(env, DefaultConfig(), 8)
	if err != nil {
		tb.Fatal(err)
	}
	gate := sim.NewQueue[struct{}](env, "gate", 0)
	for _, port := range ports {
		env.Process("xfer/"+port.Name(), func(p *sim.Proc) {
			for {
				for *left > 0 {
					*left--
					port.Transfer(p, n)
				}
				gate.Get(p)
			}
		})
	}
	return gate
}

// inputBytes is one FP16 224×224×3 input tensor, the transfer every
// inference makes.
const inputBytes = 224 * 224 * 3 * 2

// TestTransferAllocs: once every port has made its first transfer, a
// contended transfer allocates nothing.
func TestTransferAllocs(t *testing.T) {
	env := sim.NewEnv()
	left := int(^uint(0) >> 1)
	loopTransfers(t, env, inputBytes, &left)
	env.RunUntil(50 * time.Millisecond)
	before := left
	allocs := testing.AllocsPerRun(20, func() { env.RunUntil(env.Now() + 10*time.Millisecond) })
	if before-left < 20*8 {
		t.Fatalf("only %d transfers ran in the measured windows", before-left)
	}
	if allocs != 0 {
		t.Errorf("a window of warm transfers allocates %v times, want 0", allocs)
	}
	env.Stop()
}

// BenchmarkTransfer: eight ports of the Fig. 5 testbed move input
// tensors back to back, contending for the hubs and the root; one op
// is one warm transfer (each port's first one runs before the timer).
func BenchmarkTransfer(b *testing.B) {
	env := sim.NewEnv()
	left := 8
	gate := loopTransfers(b, env, inputBytes, &left)
	env.RunUntil(time.Hour)
	left = b.N
	for range 8 {
		gate.TryPut(struct{}{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	env.RunUntil(math.MaxInt64)
	b.StopTimer()
	if left != 0 {
		b.Fatalf("%d transfers left at the horizon", left)
	}
	env.Stop()
}
