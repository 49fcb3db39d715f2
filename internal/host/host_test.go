package host

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/core"
	"lsvd/internal/nbd"
	"lsvd/internal/objstore"
	"lsvd/internal/simdev"
	"lsvd/internal/testleak"
)

func TestMain(m *testing.M) { testleak.Main(m) }

func testHost(t *testing.T, store objstore.Store, cache simdev.Device, maxVols int) *Host {
	t.Helper()
	h, err := New(context.Background(), core.HostOptions{Store: store, Cache: cache, MaxVolumes: maxVols})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func pattern(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestHostEightVolumesShareOneSSD(t *testing.T) {
	ctx := context.Background()
	store := objstore.NewMem()
	// 8 slots need >= ~5 MiB each (4 MiB min log area + metadata):
	// 240 MiB * 0.2 / 8 = 6 MiB per slot.
	cache := simdev.NewMem(240 * block.MiB)
	h := testHost(t, store, cache, 8)

	const volBytes = 4 * block.MiB
	const ioBytes = 512 << 10
	disks := make([]*core.Disk, 8)
	for i := range disks {
		d, err := h.Create(ctx, fmt.Sprintf("vm%d", i), core.VolumeOptions{VolBytes: volBytes})
		if err != nil {
			t.Fatalf("create vm%d: %v", i, err)
		}
		disks[i] = d
	}

	// All eight write and read concurrently through the shared SSD,
	// shared semaphores, and shared backend.
	var wg sync.WaitGroup
	errs := make(chan error, len(disks))
	for i, d := range disks {
		wg.Add(1)
		go func(i int, d *core.Disk) {
			defer wg.Done()
			data := pattern(int64(i), ioBytes)
			if err := d.WriteAt(data, 0); err != nil {
				errs <- fmt.Errorf("vm%d write: %w", i, err)
				return
			}
			if err := d.Drain(); err != nil {
				errs <- fmt.Errorf("vm%d drain: %w", i, err)
				return
			}
			got := make([]byte, ioBytes)
			if err := d.ReadAt(got, 0); err != nil {
				errs <- fmt.Errorf("vm%d read: %w", i, err)
				return
			}
			if !bytes.Equal(got, data) {
				errs <- fmt.Errorf("vm%d readback mismatch", i)
			}
		}(i, d)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Each volume's objects live under its own prefix.
	for i := range disks {
		names, err := store.List(ctx, volPrefix(fmt.Sprintf("vm%d", i)))
		if err != nil || len(names) == 0 {
			t.Fatalf("vm%d has no namespaced objects: %v %v", i, names, err)
		}
	}
	// Host-wide metering saw the traffic.
	if st := h.Stats(); st.Backend.Puts == 0 {
		t.Fatal("host meter recorded no PUTs")
	}
	if got := h.Volumes(); len(got) != 8 || !sort.StringsAreSorted(got) {
		t.Fatalf("Volumes() = %v", got)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHostRestartReattachesSlots(t *testing.T) {
	ctx := context.Background()
	store := objstore.NewMem()
	cache := simdev.NewMem(128 * block.MiB)
	h := testHost(t, store, cache, 4)

	want := map[string][]byte{}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("vm%d", i)
		d, err := h.Create(ctx, name, core.VolumeOptions{VolBytes: 4 * block.MiB})
		if err != nil {
			t.Fatal(err)
		}
		data := pattern(int64(100+i), 256<<10)
		if err := d.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		want[name] = data
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	// Same SSD, same bucket: the slot table brings each volume back on
	// the section holding its write log (Close destaged everything, but
	// recovery would also replay — either way the data must be there).
	h2 := testHost(t, store, cache, 4)
	if got := h2.Volumes(); len(got) != 3 {
		t.Fatalf("after restart Volumes() = %v", got)
	}
	for name, data := range want {
		d, err := h2.Open(ctx, name, core.VolumeOptions{})
		if err != nil {
			t.Fatalf("reopen %s: %v", name, err)
		}
		got := make([]byte, len(data))
		if err := d.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s lost data across restart", name)
		}
	}
	if err := h2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHostRestartRefusesAnotherCarving: a host reopened with a
// MaxVolumes that carves the SSD otherwise is refused with a
// LayoutError, for the new carving would move every slot's log but
// slot 0's; reopened as it was carved, it gives back each volume's
// flushed writes that never reached the backend.
func TestHostRestartRefusesAnotherCarving(t *testing.T) {
	ctx := context.Background()
	store := objstore.NewMem()
	cache := simdev.NewMem(128 * block.MiB)
	h := testHost(t, store, cache, 2)
	want := map[string][]byte{}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("vm%d", i)
		d, err := h.Create(ctx, name, core.VolumeOptions{VolBytes: 4 * block.MiB})
		if err != nil {
			t.Fatal(err)
		}
		want[name] = pattern(int64(300+i), 256<<10)
		if err := d.WriteAt(want[name], 0); err != nil {
			t.Fatal(err)
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		d.Kill()
	}

	_, err := New(ctx, core.HostOptions{Store: store, Cache: cache, MaxVolumes: 4})
	var le *LayoutError
	if !errors.As(err, &le) || le.Recorded.Slots != 2 || le.Asked.Slots != 4 {
		t.Fatalf("New with MaxVolumes 4 over a 2-slot carving: %v, want a LayoutError", err)
	}
	h2 := testHost(t, store, cache, 2)
	for name, data := range want {
		d, err := h2.Open(ctx, name, core.VolumeOptions{})
		if err != nil {
			t.Fatalf("reopen %s: %v", name, err)
		}
		got := make([]byte, len(data))
		if err := d.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s lost its flushed writes across the restart", name)
		}
	}
	if err := h2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHostOpenAllConcurrentAttach(t *testing.T) {
	ctx := context.Background()
	store := objstore.NewMem()
	cache := simdev.NewMem(128 * block.MiB)
	h := testHost(t, store, cache, 4)

	want := map[string][]byte{}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("vm%d", i)
		d, err := h.Create(ctx, name, core.VolumeOptions{VolBytes: 4 * block.MiB})
		if err != nil {
			t.Fatal(err)
		}
		data := pattern(int64(200+i), 256<<10)
		if err := d.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		want[name] = data
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt vm3's superblock: its attach must fail without taking the
	// neighbors down with it.
	if err := store.Put(ctx, volPrefix("vm3")+"vm3.super", []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	delete(want, "vm3")

	h2 := testHost(t, store, cache, 4)
	vols := map[string]core.VolumeOptions{
		"vm0": {}, "vm1": {}, "vm2": {}, "vm3": {},
	}
	disks, errs := h2.OpenAll(ctx, vols)
	if len(errs) != 1 || errs["vm3"] == nil {
		t.Fatalf("OpenAll errs = %v, want exactly vm3", errs)
	}
	if len(disks) != 3 {
		t.Fatalf("OpenAll opened %d volumes, want 3", len(disks))
	}
	for name, data := range want {
		d := disks[name]
		if d == nil {
			t.Fatalf("OpenAll did not return %s", name)
		}
		got := make([]byte, len(data))
		if err := d.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s lost data across OpenAll restart", name)
		}
	}
	// The failed volume did not leak its lease: a later retry can open
	// it again once repaired (here: still broken, so it still errors,
	// but with the same clean "not leased" path, not "already open").
	if _, err := h2.Open(ctx, "vm3", core.VolumeOptions{}); err == nil {
		t.Fatal("open of corrupted vm3 unexpectedly succeeded")
	}
	if err := h2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHostVolumeIsolation(t *testing.T) {
	ctx := context.Background()
	h := testHost(t, objstore.NewMem(), simdev.NewMem(48*block.MiB), 2)
	a, err := h.Create(ctx, "a", core.VolumeOptions{VolBytes: 4 * block.MiB})
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Create(ctx, "b", core.VolumeOptions{VolBytes: 4 * block.MiB})
	if err != nil {
		t.Fatal(err)
	}
	da, db := pattern(1, 128<<10), pattern(2, 128<<10)
	if err := a.WriteAt(da, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteAt(db, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(da))
	if err := a.ReadAt(got, 0); err != nil || !bytes.Equal(got, da) {
		t.Fatal("volume a read wrong data")
	}
	if err := b.ReadAt(got, 0); err != nil || !bytes.Equal(got, db) {
		t.Fatal("volume b read wrong data")
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHostSlotLimitsAndDoubleOpen(t *testing.T) {
	ctx := context.Background()
	h := testHost(t, objstore.NewMem(), simdev.NewMem(48*block.MiB), 2)
	if _, err := h.Create(ctx, "a", core.VolumeOptions{VolBytes: block.MiB}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Create(ctx, "b", core.VolumeOptions{VolBytes: block.MiB}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Create(ctx, "c", core.VolumeOptions{VolBytes: block.MiB}); err == nil {
		t.Fatal("third volume on a 2-slot host accepted")
	}
	if _, err := h.Open(ctx, "a", core.VolumeOptions{}); err == nil {
		t.Fatal("double open accepted")
	}
	if _, err := h.Open(ctx, "nope", core.VolumeOptions{}); err == nil {
		t.Fatal("open of unknown volume accepted")
	}
	for _, bad := range []string{"", ".", "..", "a/b", `a\b`} {
		if _, err := h.Create(ctx, bad, core.VolumeOptions{VolBytes: block.MiB}); err == nil {
			t.Fatalf("bad name %q accepted", bad)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHostDeleteVolume(t *testing.T) {
	ctx := context.Background()
	store := objstore.NewMem()
	h := testHost(t, store, simdev.NewMem(48*block.MiB), 2)
	d, err := h.Create(ctx, "gone", core.VolumeOptions{VolBytes: 4 * block.MiB})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAt(pattern(1, 128<<10), 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(ctx, "gone"); err == nil {
		t.Fatal("delete of open volume accepted")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(ctx, "gone"); err != nil {
		t.Fatal(err)
	}
	names, err := store.List(ctx, volPrefix("gone"))
	if err != nil || len(names) != 0 {
		t.Fatalf("objects survived delete: %v %v", names, err)
	}
	if _, err := h.Open(ctx, "gone", core.VolumeOptions{}); err == nil {
		t.Fatal("deleted volume still opens")
	}
	// The freed slot is reusable.
	if _, err := h.Create(ctx, "next", core.VolumeOptions{VolBytes: block.MiB}); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHostArenaFairness is the ISSUE's fairness criterion: a cold
// volume sharing the arena with a hot churner retains at least its
// proportional occupancy floor, its cached data stays served from the
// SSD (no new backend GETs), and its read p99 stays bounded.
func TestHostArenaFairness(t *testing.T) {
	ctx := context.Background()
	store := objstore.NewMem()
	// 32 MiB SSD at frac 0.4, 2 slots: 6.4 MiB of write-cache log per
	// volume (~5.6 MiB log area), arena ~19 MiB -> map ~2.4 MiB, 8
	// slabs of 2 MiB (16 MiB capacity), fair share 4. Hot's miss-able
	// working set (~18 MiB) exceeds the whole arena, so it must churn.
	h, err := New(ctx, core.HostOptions{
		Store: store, Cache: simdev.NewMem(32 * block.MiB), WriteCacheFrac: 0.4,
		MaxVolumes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	const volBytes = 24 * block.MiB

	cold, err := h.Create(ctx, "cold", core.VolumeOptions{VolBytes: volBytes})
	if err != nil {
		t.Fatal(err)
	}
	hot, err := h.Create(ctx, "hot", core.VolumeOptions{VolBytes: volBytes})
	if err != nil {
		t.Fatal(err)
	}

	// Both volumes write a working set much larger than their ~5.6 MiB
	// write-cache log, so early extents get evicted from the write
	// log and reads of them must go through the shared arena. Hot's
	// set is sized so its arena-resident part (everything the write
	// log no longer holds, ~18 MiB) exceeds its fair share (5 slabs =
	// 20 MiB... with the map sized at 6.4 MiB the arena holds 11
	// slabs, so hot alone wants ~9 > share) and must churn.
	const coldWS = 12 * block.MiB
	const hotWS = 24 * block.MiB
	const chunk = 512 << 10
	writeWS := func(d *core.Disk, seed int64, ws int64) {
		t.Helper()
		for off := int64(0); off < ws; off += chunk {
			if err := d.WriteAt(pattern(seed+off, chunk), off); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	writeWS(cold, 1000, coldWS)
	writeWS(hot, 2000, hotWS)

	// Cold warms a small arena working set: the first 4 MiB (one slab
	// worth), read twice so the second pass is all SSD hits.
	coldRead := func() time.Duration {
		start := time.Now()
		buf := make([]byte, chunk)
		for off := int64(0); off < 4*block.MiB; off += chunk {
			if err := cold.ReadAt(buf, off); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	coldRead()
	coldRead()
	coldStats := cold.Stats()
	coldOwnedBefore := coldStats.ReadCache.OwnedSlabs
	share := coldStats.ReadCache.FairShareSlabs
	if coldOwnedBefore == 0 {
		t.Fatal("cold volume cached nothing in the arena; working set never left the write cache")
	}
	coldGETsBefore := cold.Stats().Backend.FetchGETs

	// Hot churns the arena far past its capacity while cold keeps
	// reading its warmed set; collect cold's pass latencies.
	var coldLat []time.Duration
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, chunk)
		r := rand.New(rand.NewSource(7))
		for i := 0; i < 600; i++ {
			off := (r.Int63n(hotWS / chunk)) * chunk
			if err := hot.ReadAt(buf, off); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		coldLat = append(coldLat, coldRead())
	}
	<-done

	coldAfter := cold.Stats()
	floor := coldOwnedBefore
	if floor > share {
		floor = share
	}
	if coldAfter.ReadCache.OwnedSlabs < floor {
		t.Fatalf("cold evicted below its floor: owns %d slabs, floor %d (share %d, before %d)",
			coldAfter.ReadCache.OwnedSlabs, floor, share, coldOwnedBefore)
	}
	// Cold's warmed set was never evicted: its re-reads stayed on the
	// SSD (no new backend GETs for cold).
	if coldAfter.Backend.FetchGETs != coldGETsBefore {
		t.Fatalf("cold went back to the backend under hot churn: GETs %d -> %d",
			coldGETsBefore, coldAfter.Backend.FetchGETs)
	}
	// Hot actually churned (evictions happened, hot is at its share).
	ast := h.Stats().Arena
	if ast.Evictions == 0 {
		t.Fatal("hot never churned the arena; test is vacuous")
	}
	// p99 (here: max of 20 passes) stays bounded — generous bound, the
	// point is "not starved", not a precise latency SLO.
	sort.Slice(coldLat, func(i, j int) bool { return coldLat[i] < coldLat[j] })
	if p99 := coldLat[len(coldLat)-1]; p99 > 5*time.Second {
		t.Fatalf("cold read pass p99 %v exceeds bound", p99)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHostServesVolumesOverNBD(t *testing.T) {
	ctx := context.Background()
	h := testHost(t, objstore.NewMem(), simdev.NewMem(64*block.MiB), 2)
	for _, name := range []string{"vm0", "vm1"} {
		if _, err := h.Create(ctx, name, core.VolumeOptions{VolBytes: 4 * block.MiB}); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := h.NBDServer()
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	names, err := nbd.List(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	if len(names) != 2 || names[0] != "vm0" || names[1] != "vm1" {
		t.Fatalf("exports = %v", names)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			c, err := nbd.Dial(ln.Addr().String(), name)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			data := pattern(int64(i), 64<<10)
			if err := c.WriteAt(data, 0); err != nil {
				errs <- err
				return
			}
			got := make([]byte, len(data))
			if err := c.ReadAt(got, 0); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, data) {
				errs <- fmt.Errorf("%s: NBD round trip mismatch", name)
			}
		}(i, name)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestVolumeSeesHostBudgets: the options a volume opens with carry the
// host's half unchanged — budgets and retry policy are the host's
// whatever the caller put in the volume half — with the store
// swapped for the volume's namespaced view and the name forced.
func TestVolumeSeesHostBudgets(t *testing.T) {
	ctx := context.Background()
	h, err := New(ctx, core.HostOptions{
		Store: objstore.NewMem(), Cache: simdev.NewMem(32 * block.MiB),
		WriteCacheFrac: 0.4, UploadDepth: 3, FetchDepth: 5,
		Retry: objstore.RetryPolicy{MaxAttempts: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	v := core.VolumeOptions{Volume: "ignored", VolBytes: 4 * block.MiB, BatchBytes: 1 * block.MiB}
	got, err := h.coreOptions("vm", v)
	if err != nil {
		t.Fatal(err)
	}
	if got.Store == h.opts.Store {
		t.Error("volume sees the bucket root, not its namespaced view")
	}
	wantHost := h.opts
	wantHost.Store = got.Store
	if got.HostOptions != wantHost {
		t.Errorf("host half %+v, want %+v", got.HostOptions, wantHost)
	}
	v.Volume = "vm"
	if got.VolumeOptions != v {
		t.Errorf("volume half %+v, want %+v", got.VolumeOptions, v)
	}
}
