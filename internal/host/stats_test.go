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
	h, err := New(ctx, Options{HostOptions: core.HostOptions{Store: store, CacheDev: dev}, MaxVolumes: 2})
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
	wps, err := LoadWritePathStats(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	if len(wps) != 1 || wps[0].Volume != "v1" {
		t.Fatalf("snapshot rows: %+v", wps)
	}
	if wps[0].Writes != 16 || wps[0].GroupBatches == 0 {
		t.Fatalf("counters: %+v", wps[0])
	}
	// The close-time drain seals and uploads at least one object, and
	// its gate acquisition must survive the volume's Unregister.
	if wps[0].UploadGrants+wps[0].UploadBorrows == 0 {
		t.Fatalf("upload gate counters lost: %+v", wps[0])
	}
}
