package host

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"lsvd/internal/core"
	"lsvd/internal/objstore"
	"lsvd/internal/simdev"
)

func TestStatsSnapshotSmoke(t *testing.T) {
	dir := t.TempDir()
	store, err := objstore.NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	dev := simdev.NewMem(64 << 20)
	ctx := context.Background()
	h, err := New(ctx, core.HostOptions{Store: store, Cache: dev, MaxVolumes: 2})
	if err != nil {
		t.Fatal(err)
	}
	d, err := h.Create(ctx, "v1", core.VolumeOptions{VolBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i)
	}
	for i := 0; i < 16; i++ {
		if err := d.WriteAt(buf, int64(i)*int64(len(buf))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "host", "stats")); err != nil {
		t.Fatalf("snapshot object: %v", err)
	}
	vols, err := LoadStatsSnapshot(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	if len(vols) != 1 || vols[0].Name != "v1" {
		t.Fatalf("snapshot rows: %+v", vols)
	}
	st := vols[0].Stats
	if st.Writes != 16 || st.WriteCache.GroupBatches == 0 {
		t.Fatalf("counters: %+v", st)
	}
	// The close-time drain seals and uploads at least one object, and
	// its gate acquisition must survive the volume's Unregister.
	if st.Backend.UploadGrants+st.Backend.UploadBorrows == 0 {
		t.Fatalf("upload gate counters lost: %+v", st.Backend)
	}

	// A snapshot in a format this build does not write reads as absent.
	old := []byte(`{"version":3,"volumes":[{"volume":"v1","writes":16}]}`)
	if err := store.Put(ctx, statsKey, old); err != nil {
		t.Fatal(err)
	}
	if vols, err := LoadStatsSnapshot(ctx, store); err != nil || vols != nil {
		t.Fatalf("version 3 snapshot: got %+v, %v; want nil, nil", vols, err)
	}
}
