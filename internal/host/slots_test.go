package host

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"strings"
	"sync"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/core"
	"lsvd/internal/objstore"
	"lsvd/internal/simdev"
	"lsvd/internal/testrec"
)

// A slow or hung slot-table PUT (it can ride a whole retry backoff
// schedule) must not stall reads of the host state: Volumes and Disk
// take only the host lock, and saveSlots must persist off that lock.
// Regression test for saveSlots blocking on the backend under h.mu.
func TestSlotSavePersistsOffHostLock(t *testing.T) {
	ctx := context.Background()
	g := testrec.NewStore(objstore.NewMem())
	h := testHost(t, g, simdev.NewMem(48*block.MiB), 2)
	hold := g.Park(testrec.Puts.Named(slotsKey))

	created := make(chan error, 1)
	go func() {
		_, err := h.Create(ctx, "v1", core.VolumeOptions{VolBytes: 4 * block.MiB})
		created <- err
	}()
	<-hold.Arrived()

	// The PUT is parked. Host-state reads must still complete.
	stateRead := make(chan []string, 1)
	go func() {
		vols := h.Volumes()
		h.Disk("v1")
		stateRead <- vols
	}()
	select {
	case vols := <-stateRead:
		if len(vols) != 1 || vols[0] != "v1" {
			t.Fatalf("Volumes during slot PUT: %v, want [v1]", vols)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Volumes/Disk blocked behind the in-flight slot-table PUT")
	}

	hold.Release(nil)
	if err := <-created; err != nil {
		t.Fatalf("Create failed after release: %v", err)
	}
	d, ok := h.Disk("v1")
	if !ok {
		t.Fatal("volume not open after Create")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// Saves of a changing slot table race for the slot lock, and the one
// that takes it first need not hold the newest snapshot. Eight snapshots
// are taken as the table grows and PUT newest first: the newest one's
// PUT is held on a gate while the seven older saves queue behind it,
// then released. Every older save must then be skipped rather than
// written over it, so the persisted table ends equal to the in-memory
// one.
func TestConcurrentSlotSavesPersistTheNewestTable(t *testing.T) {
	ctx := context.Background()
	rs := testrec.NewStore(objstore.NewMem())
	h := testHost(t, rs, simdev.NewMem(240*block.MiB), 8)
	type snapshot struct {
		gen uint64
		raw []byte
	}
	var snaps []snapshot
	for i := 0; i < 8; i++ {
		h.mu.Lock()
		h.slots[fmt.Sprintf("v%d", i)] = i
		h.mu.Unlock()
		gen, raw, err := h.snapshotSlots()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snapshot{gen, raw})
	}

	g := rs.Gate(testrec.Puts.Named(slotsKey))
	var wg sync.WaitGroup
	put := func(s snapshot) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := h.putSlots(ctx, s.gen, s.raw); err != nil {
				t.Error(err)
			}
		}()
	}
	settle := func() []*testrec.Held {
		t.Helper()
		if err := testrec.Settle(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		return g.Held()
	}
	put(snaps[len(snaps)-1])
	newest := settle()
	if len(newest) != 1 {
		t.Fatalf("%d slot-table PUTs held, want the newest snapshot's", len(newest))
	}
	for _, s := range snaps[:len(snaps)-1] {
		put(s)
	}
	if held := settle(); len(held) != 1 {
		t.Fatalf("%d slot-table PUTs held while the newest holds the slot lock", len(held))
	}
	g.Release(newest[0], nil)
	stale := 0
	for held := settle(); len(held) > 0; held = settle() {
		stale++
		g.Release(held[0], nil)
	}
	wg.Wait()
	g.Open()
	if stale > 0 {
		t.Errorf("%d older snapshots were PUT after the newest landed", stale)
	}

	raw, err := rs.Get(ctx, slotsKey)
	if err != nil {
		t.Fatal(err)
	}
	var f slotsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(f.Slots, h.slots) || len(h.slots) != 8 {
		t.Fatalf("persisted slot table %v, in memory %v", f.Slots, h.slots)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// A Delete whose slot-table PUT fails must put the in-memory lease
// back (the persisted table still names the volume), so the volume is
// neither orphaned nor double-assignable. Regression test for the
// rollback path introduced when saveSlots moved off the host lock.
func TestDeleteRestoresSlotWhenSaveFails(t *testing.T) {
	ctx := context.Background()
	g := testrec.NewStore(objstore.NewMem())
	h := testHost(t, g, simdev.NewMem(48*block.MiB), 2)

	d, err := h.Create(ctx, "v1", core.VolumeOptions{VolBytes: 4 * block.MiB})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	heal := g.Fail(testrec.Puts.Named(slotsKey), objstore.ErrBadName) // terminal: no retry
	if err := h.Delete(ctx, "v1"); err == nil {
		t.Fatal("Delete succeeded despite the slot-table PUT failing")
	}
	if vols := h.Volumes(); len(vols) != 1 || vols[0] != "v1" {
		t.Fatalf("volume list after failed Delete: %v, want [v1]", vols)
	}

	// With the backend healthy again the volume opens and deletes.
	d, err = h.Open(ctx, "v1", core.VolumeOptions{})
	if err != nil {
		t.Fatalf("Open after failed Delete: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	heal()
	if err := h.Delete(ctx, "v1"); err != nil {
		t.Fatalf("Delete after recovery: %v", err)
	}
	if vols := h.Volumes(); len(vols) != 0 {
		t.Fatalf("volume list after Delete: %v, want empty", vols)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// A slot's write-cache region outlives the volume that used it. The
// next tenant formats over it, and must get an empty cache even if it
// crashes right away: nothing the deleted volume logged may be replayed
// into the new one.
func TestReusedSlotDoesNotReplayDeletedVolume(t *testing.T) {
	ctx := context.Background()
	h := testHost(t, objstore.NewMem(), simdev.NewMem(64*block.MiB), 2)
	opts := core.VolumeOptions{VolBytes: 8 * block.MiB}

	a, err := h.Create(ctx, "a", opts)
	if err != nil {
		t.Fatal(err)
	}
	secret := bytes.Repeat([]byte{0x5a}, block.BlockSize)
	for i := int64(0); i < 4; i++ {
		if err := a.WriteAt(secret, i*block.BlockSize); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(ctx, "a"); err != nil {
		t.Fatal(err)
	}

	b, err := h.Create(ctx, "b", opts)
	if err != nil {
		t.Fatal(err)
	}
	own := pattern(3, block.BlockSize)
	if err := b.WriteAt(own, block.MiB); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	b.Kill()
	b, err = h.Open(ctx, "b", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Kill)
	if got := b.Stats().RecoveredReplayed; got != 1 {
		t.Fatalf("reopen replayed %d cache records, want b's one write", got)
	}
	got := make([]byte, 4*block.BlockSize)
	if err := b.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, len(got))) {
		t.Fatal("the new volume reads the deleted volume's data")
	}
	if err := b.ReadAt(got[:block.BlockSize], block.MiB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:block.BlockSize], own) {
		t.Fatal("the new volume lost its own write")
	}
}

// DESIGN.md §9.1 rule 1 through a host slot: the volume's write log
// laps its carve-out of the shared SSD, destage catches up, a flushed
// tail smaller than a batch stays in the cache only — and Kill and Open
// on the same slot must give every flushed block back.
func TestKillAfterSlotWriteLogLapsKeepsFlushedTail(t *testing.T) {
	ctx := context.Background()
	h := testHost(t, objstore.NewMem(), simdev.NewMem(128*block.MiB), 2)
	opts := core.VolumeOptions{VolBytes: 64 * block.MiB, BatchBytes: block.MiB}
	d, err := h.Create(ctx, "a", opts)
	if err != nil {
		t.Fatal(err)
	}
	const blk = 64 * 1024
	latest := map[int64]int64{}
	write := func(v, b int64) {
		t.Helper()
		if err := d.WriteAt(pattern(v, blk), b*blk); err != nil {
			t.Fatal(err)
		}
		latest[b] = v
	}
	for v := int64(1); v*blk <= 2*d.Stats().WriteCache.LogBytes+blk; v++ {
		write(v, v%48)
		if v%8 == 0 {
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Drain(); err != nil {
		t.Fatal(err)
	}
	for b := int64(0); b < 6; b++ {
		write(100000+b, b)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	d.Kill()
	if d, err = h.Open(ctx, "a", opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Kill)
	got := make([]byte, blk)
	for b, v := range latest {
		if err := d.ReadAt(got, b*blk); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pattern(v, blk)) {
			t.Fatalf("block %d does not read its last flushed version (%d)", b, v)
		}
	}
}

// A volume's write log is its slot less the two superblocks, and a
// ring-full writer whose only in-flight object is parked behind a
// neighbour on the host's upload gate — so its kick seals nothing and no
// commit ticks — still gets through: the stalled watermark escalates to
// the fence, and the gate slot, once the neighbour gives it back, is
// this volume's by its guaranteed share.
func TestRingFullBehindAParkedGateSlotStillProgresses(t *testing.T) {
	ctx := context.Background()
	ps := testrec.NewStore(objstore.NewMem())
	h, err := New(ctx, core.HostOptions{
		Store: ps, Cache: simdev.NewMem(128 * block.MiB), UploadDepth: 1,
		MaxVolumes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := h.Create(ctx, "a", core.VolumeOptions{VolBytes: 64 * block.MiB, BatchBytes: 9 * block.MiB, GCLowWater: -1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Create(ctx, "b", core.VolumeOptions{VolBytes: 16 * block.MiB, BatchBytes: block.MiB, GCLowWater: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := a.Stats().WriteCache.LogBytes, h.slotDevs[0].Size()-2*block.BlockSize; got != want {
		t.Fatalf("write log of %d bytes in a slot of %d, want all but 8 KiB", got, h.slotDevs[0].Size())
	}

	// b takes the host's one upload slot and sits on it.
	p := ps.Park(testrec.Puts.Prefixed(volPrefix("b")))
	if err := b.WriteAt(pattern(1, int(block.MiB)), 0); err != nil {
		t.Fatal(err)
	}
	<-p.Arrived()

	// a seals a 9 MiB batch (72 writes) behind it, then fills the 24
	// records its log has left: under half a batch, one object in flight.
	const blk = 128 * 1024
	done := make(chan error, 1)
	go func() {
		for i := int64(0); i < 200; i++ {
			if err := a.WriteAt(pattern(i, blk), i*blk); err != nil {
				done <- err
				return
			}
		}
		done <- a.Drain()
	}()
	if err := testrec.Settle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if a.Stats().RingKicks == 0 {
		t.Fatal("a's writer settled without kicking a seal for its full ring")
	}
	if st := a.Stats(); st.Backend.DurableWriteSeq != 0 || st.Backend.InflightObjects != 1 {
		t.Fatalf("a committed through write %d with %d objects in flight while its upload was parked on the gate",
			st.Backend.DurableWriteSeq, st.Backend.InflightObjects)
	}
	p.Release(nil)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("a's writer is still stalled after the gate slot came back")
	}
	got := make([]byte, blk)
	for _, i := range []int64{0, 71, 72, 199} {
		if err := a.ReadAt(got, i*blk); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pattern(i, blk)) {
			t.Fatalf("write %d does not read back", i)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNewRefusesABadSlotTable: a slot table that gives one slot to two
// volumes, names a volume core refuses, or assigns a slot past
// MaxVolumes fails New, which then writes nothing, where a shared slot
// would otherwise reach leaseLocked's bijection assert at the next
// Create or Open.
func TestNewRefusesABadSlotTable(t *testing.T) {
	ctx := context.Background()
	for name, tc := range map[string]struct {
		slots map[string]int
		want  string
	}{
		"shared slot":  {map[string]int{"a": 1, "b": 1, "c": 0}, `slot 1 to both "a" and "b"`},
		"bad name":     {map[string]int{"a/b": 0}, `invalid volume name "a/b"`},
		"out of range": {map[string]int{"a": 2}, "outside 0..1"},
	} {
		t.Run(name, func(t *testing.T) {
			mem := objstore.NewMem()
			raw, err := json.Marshal(slotsFile{Version: 1, Slots: tc.slots})
			if err != nil {
				t.Fatal(err)
			}
			if err := mem.Put(ctx, slotsKey, raw); err != nil {
				t.Fatal(err)
			}
			rs := testrec.NewStore(mem)
			_, err = New(ctx, core.HostOptions{Store: rs, Cache: simdev.NewMem(48 * block.MiB), MaxVolumes: 2})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New over %v: %v, want an error naming %s", tc.slots, err, tc.want)
			}
			for _, op := range rs.Log() {
				if op.Kind == testrec.Put || op.Kind == testrec.Delete {
					t.Fatalf("New refused the table but issued %v", op)
				}
			}
		})
	}
}
