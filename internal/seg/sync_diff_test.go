package seg

import (
	"bytes"
	"fmt"
	"testing"

	"hyperion/internal/nvme"
	"hyperion/internal/sim"
)

// refView is the whole-block synchronous path SyncView replaced, kept
// verbatim in shape as the reference: reads copy every covering block
// and slide the payload down; unaligned writes read the covering
// blocks, merge, and write them all back. It charges cost and counts
// device operations exactly as the old code did.
type refView struct {
	s                   *Store
	cost                sim.Duration
	DevReads, DevWrites int64
	rmw                 []byte
}

func (v *refView) readAt(id ObjectID, off, length int64) ([]byte, error) {
	sg, tc, err := v.s.Lookup(id)
	v.cost += tc
	if err != nil {
		return nil, err
	}
	if off < 0 || length < 0 || off+length > sg.Size {
		return nil, fmt.Errorf("%w: [%d,%d) of %d", ErrBounds, off, off+length, sg.Size)
	}
	if sg.Loc == LocDRAM {
		v.cost += v.s.dramTime(length)
		out := make([]byte, length)
		v.s.dram.read(out, sg.Addr+off)
		return out, nil
	}
	dev, lba := v.s.split(sg.Addr)
	bs := int64(v.s.cfg.BlockSize)
	first := lba + off/bs
	nblocks := int((off+length+bs-1)/bs - off/bs)
	if nblocks < 1 {
		nblocks = 1
	}
	skip := off % bs
	d := v.s.devs[dev].Device()
	v.cost += d.AccessCost(nvme.OpRead, nblocks)
	v.DevReads++
	data := make([]byte, int64(nblocks)*bs)
	d.ReadSyncAt(data, first, 0) // whole covering blocks
	copy(data, data[skip:skip+length])
	return data[:length], nil
}

func (v *refView) writeAt(id ObjectID, off int64, data []byte) error {
	sg, tc, err := v.s.Lookup(id)
	v.cost += tc
	if err != nil {
		return err
	}
	length := int64(len(data))
	if off < 0 || off+length > sg.Size {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrBounds, off, off+length, sg.Size)
	}
	if sg.Loc == LocDRAM {
		v.cost += v.s.dramTime(length)
		v.s.dram.write(sg.Addr+off, data)
		return nil
	}
	dev, lba := v.s.split(sg.Addr)
	bs := int64(v.s.cfg.BlockSize)
	first := lba + off/bs
	nblocks := int((off+length+bs-1)/bs - off/bs)
	if nblocks < 1 {
		nblocks = 1
	}
	skip := off % bs
	d := v.s.devs[dev].Device()
	if skip == 0 && length%bs == 0 {
		v.cost += d.AccessCost(nvme.OpWrite, nblocks)
		v.DevWrites++
		d.WriteSync(first, data)
		return nil
	}
	v.cost += d.AccessCost(nvme.OpRead, nblocks) + d.AccessCost(nvme.OpWrite, nblocks)
	v.DevReads++
	v.DevWrites++
	old := grow(v.rmw, int64(nblocks)*bs)
	v.rmw = old
	d.ReadSyncAt(old, first, 0)
	copy(old[skip:], data)
	d.WriteSync(first, old)
	return nil
}

func storedBlocks(s *Store) []int {
	out := make([]int, len(s.devs))
	for i, h := range s.devs {
		out[i] = h.Device().StoredBlocks()
	}
	return out
}

// TestSyncByteRangeMatchesWholeBlockReference drives SyncView and the
// old whole-block path with the same random (offset, length) script
// over DRAM and NVMe segments — block-straddling ranges, never-written
// blocks, empty ranges, aligned and unaligned writes, with ReadAt and
// a reused ReadAtBuf scratch — and requires identical bytes, stored
// block counts, modeled cost and device op counts after every step.
// The stored-block comparison pins that an unaligned empty write still
// materializes the block holding its offset, as the old read-modify-
// write did, while an aligned one stores nothing.
func TestSyncByteRangeMatchesWholeBlockReference(t *testing.T) {
	const bs = 4096
	for seed := uint64(1); seed <= 8; seed++ {
		_, sNew := newStore(t, 2)
		_, sRef := newStore(t, 2)
		v, ref := NewSyncView(sNew), &refView{s: sRef}
		r := sim.NewRand(seed)
		type obj struct {
			id   ObjectID
			size int64
		}
		var objs []obj
		for i := 0; i < 6; i++ {
			id := OID(uint64(seed), uint64(i))
			size := int64(1+r.Intn(6))*bs + int64(r.Intn(bs))
			hint := HintCold
			if i%3 == 0 {
				hint = HintHot
			}
			for _, st := range []*Store{sNew, sRef} {
				if _, err := st.Alloc(id, size, hint == HintCold, hint); err != nil {
					t.Fatal(err)
				}
			}
			objs = append(objs, obj{id, size})
		}
		int63n := func(n int64) int64 { return int64(r.Intn(int(n))) }
		// span picks a range that is empty (at an aligned or unaligned
		// offset), block-aligned, or straddles block edges at random
		// offsets.
		span := func(size int64) (off, n int64) {
			switch r.Intn(5) {
			case 0:
				off = int63n(size + 1)
				if r.Intn(2) == 0 {
					off -= off % bs
				}
				return off, 0
			case 1:
				off = int64(r.Intn(int(size/bs)+1)) * bs
				if off >= size {
					return off - bs, bs
				}
				return off, min(int64(1+r.Intn(3))*bs, (size-off)/bs*bs)
			default:
				off = int63n(size)
				return off, int63n(min(size-off, 3*bs) + 1)
			}
		}
		var scratch []byte
		for step := 0; step < 400; step++ {
			o := objs[r.Intn(len(objs))]
			off, n := span(o.size)
			what := "read"
			switch r.Intn(3) {
			case 0:
				what = "write"
				data := make([]byte, n)
				for i := range data {
					data[i] = byte(r.Intn(255) + 1)
				}
				if err := v.WriteAt(o.id, off, data); err != nil {
					t.Fatal(err)
				}
				if err := ref.writeAt(o.id, off, data); err != nil {
					t.Fatal(err)
				}
			case 1:
				got, err := v.ReadAt(o.id, off, n)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := ref.readAt(o.id, off, n)
				if !bytes.Equal(got, want) || int64(len(got)) != n {
					t.Fatalf("seed %d step %d: ReadAt [%d,+%d) of %v differs", seed, step, off, n, o.id)
				}
			default:
				what = "readbuf"
				got, err := v.ReadAtBuf(o.id, off, n, scratch)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := ref.readAt(o.id, off, n)
				if !bytes.Equal(got, want) || int64(len(got)) != n {
					t.Fatalf("seed %d step %d: ReadAtBuf [%d,+%d) of %v differs", seed, step, off, n, o.id)
				}
				scratch = got
			}
			if v.PeekCost() != ref.cost || v.DevReads != ref.DevReads || v.DevWrites != ref.DevWrites {
				t.Fatalf("seed %d step %d (%s [%d,+%d)): cost/reads/writes %v/%d/%d, reference %v/%d/%d",
					seed, step, what, off, n, v.PeekCost(), v.DevReads, v.DevWrites, ref.cost, ref.DevReads, ref.DevWrites)
			}
			if a, b := storedBlocks(sNew), storedBlocks(sRef); fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("seed %d step %d (%s [%d,+%d)): stored blocks %v, reference %v", seed, step, what, off, n, a, b)
			}
		}
		// Whole-object sweep: every byte of every object agrees.
		for _, o := range objs {
			got, _ := v.ReadAt(o.id, 0, o.size)
			want, _ := ref.readAt(o.id, 0, o.size)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d: final contents of %v differ", seed, o.id)
			}
		}
	}
}
