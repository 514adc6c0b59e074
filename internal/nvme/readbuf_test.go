package nvme

import (
	"bytes"
	"testing"

	"hyperion/internal/fault"
	"hyperion/internal/sim"
)

// blockPattern is the payload written to lba: every byte differs from
// its neighbours' blocks, so a stale or misplaced buffer shows.
func blockPattern(lba int64, bs int) []byte {
	out := make([]byte, bs)
	for i := range out {
		out[i] = byte(lba*7 + int64(i)*13 + 1)
	}
	return out
}

func TestReadRoundTripAllocFree(t *testing.T) {
	// Host.Read → device → completion runs out of free lists: hostOps,
	// cmdCtxs and pooled read buffers. The first laps warm every pool.
	eng, _, h := newDev(t)
	var st uint16
	var sum int
	cb := func(data []byte, s uint16) { st, sum = s, sum+len(data) }
	lap := func() {
		for i := int64(0); i < 8; i++ {
			_ = h.Read(0, i*3, 1+int(i%2), cb)
		}
		eng.Run()
	}
	for i := 0; i < 4; i++ {
		lap()
	}
	allocs := testing.AllocsPerRun(100, lap)
	if st != StatusOK || sum == 0 {
		t.Fatalf("status %#x, %d bytes read", st, sum)
	}
	if allocs != 0 {
		t.Fatalf("read round trip allocates %v/lap; want 0", allocs)
	}
}

// TestReadBuffersReturnToPool drives reads through every path that
// ends a command after its buffer is taken — clean completions,
// corrupted payloads, completions the host already timed out — plus
// the paths that never take one (media errors, swallowed commands),
// and checks that each minted buffer is back on the free list once the
// engine drains, and that a corrupted payload never leaks into a later
// read of the recycled buffer.
func TestReadBuffersReturnToPool(t *testing.T) {
	eng, dev, h := newDev(t)
	bs := dev.cfg.BlockSize
	const blocks = 64
	for lba := int64(0); lba < blocks; lba++ {
		_ = h.Write(0, lba, blockPattern(lba, bs), nil)
	}
	eng.Run()

	plan := fault.NewPlan(7, "nvme").
		Set(fault.Corrupt, 0.3).
		Set(fault.MediaErr, 0.1).
		Set(fault.Timeout, 0.05)
	dev.SetFaultPlan(plan)
	// Reads queue behind each other on the eight channels, so the
	// later ones in every burst miss this deadline and their device
	// completions arrive after the host has forgotten them.
	h.SetDeadline(250 * sim.Microsecond)

	var ok, corrupt, failed, timedOut int
	check := func(lba int64, n int) func([]byte, uint16) {
		return func(data []byte, st uint16) {
			switch st {
			case StatusOK:
			case StatusTimeout:
				timedOut++
				return
			default:
				failed++
				return
			}
			want := make([]byte, 0, n*bs)
			for i := 0; i < n; i++ {
				want = append(want, blockPattern(lba+int64(i), bs)...)
			}
			diff := 0
			for i := range want {
				if data[i] != want[i] {
					if data[i]^want[i] != 0xA5 {
						t.Errorf("lba %d byte %d: %#x, want %#x or its corruption", lba, i, data[i], want[i])
					}
					diff++
				}
			}
			switch diff {
			case 0:
				ok++
			case 1:
				corrupt++
			default:
				t.Errorf("lba %d: %d damaged bytes, want at most 1", lba, diff)
			}
		}
	}
	r := sim.NewRand(3)
	for burst := 0; burst < 40; burst++ {
		for i := 0; i < 24; i++ {
			lba := int64(r.Intn(blocks - 2))
			n := 1 + r.Intn(2)
			_ = h.Read(0, lba, n, check(lba, n))
		}
		eng.Run()
	}
	injected := dev.Counters.Value("injected_corruptions")
	if timedOut == 0 || failed == 0 || corrupt == 0 || ok == 0 {
		t.Fatalf("paths not all exercised: ok %d corrupt %d failed %d timed out %d", ok, corrupt, failed, timedOut)
	}
	if int64(corrupt) > injected {
		t.Fatalf("%d corrupted deliveries but only %d injected", corrupt, injected)
	}
	// Device completions the host never delivered are the late ones:
	// their buffers were still taken and must still come back.
	if late := dev.Counters.Value("completions") - int64(ok+corrupt+failed) - blocks; late <= 0 {
		t.Fatalf("no late completion dropped (%d deadlines fired)", h.Timeouts)
	}
	if free, minted := dev.rbufs.Free(), dev.rbufs.News; int64(free) != minted {
		t.Fatalf("%d of %d read buffers on the free list after drain", free, minted)
	}

	// With the fault plan off, every block reads back exactly: no flip
	// survives in the store or in a recycled buffer.
	dev.SetFaultPlan(nil)
	h.SetDeadline(0)
	ok, corrupt = 0, 0
	for lba := int64(0); lba < blocks; lba++ {
		_ = h.Read(0, lba, 1, check(lba, 1))
	}
	eng.Run()
	if ok != blocks || corrupt != 0 {
		t.Fatalf("clean pass: %d exact, %d corrupted of %d", ok, corrupt, blocks)
	}
	if free, minted := dev.rbufs.Free(), dev.rbufs.News; int64(free) != minted {
		t.Fatalf("%d of %d read buffers on the free list after clean pass", free, minted)
	}
}

func TestReadPayloadIsALoan(t *testing.T) {
	// The buffer handed to one callback is recycled for the next read:
	// a caller that keeps a copy keeps its bytes, one that keeps the
	// slice sees them overwritten.
	eng, dev, h := newDev(t)
	bs := dev.cfg.BlockSize
	_ = h.Write(0, 1, blockPattern(1, bs), nil)
	_ = h.Write(0, 2, blockPattern(2, bs), nil)
	eng.Run()
	var kept, copied []byte
	_ = h.Read(0, 1, 1, func(data []byte, _ uint16) {
		kept, copied = data, append([]byte(nil), data...)
	})
	eng.Run()
	_ = h.Read(0, 2, 1, func([]byte, uint16) {})
	eng.Run()
	if !bytes.Equal(copied, blockPattern(1, bs)) {
		t.Fatal("copy taken inside the callback changed")
	}
	if !bytes.Equal(kept, blockPattern(2, bs)) {
		t.Fatal("the second read did not reuse the first read's buffer")
	}
}
