package nbd

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"sort"
	"testing"

	"lsvd/internal/block"
	"lsvd/internal/core"
	"lsvd/internal/objstore"
	"lsvd/internal/simdev"
	"lsvd/internal/vdisk"
)

// memVDisk is a simple vdisk.Disk over a MemDevice.
type memVDisk struct{ dev *simdev.MemDevice }

func (d memVDisk) ReadAt(p []byte, off int64) error  { return d.dev.ReadAt(p, off) }
func (d memVDisk) WriteAt(p []byte, off int64) error { return d.dev.WriteAt(p, off) }
func (d memVDisk) Flush() error                      { return d.dev.Flush() }
func (d memVDisk) Trim(off, n int64) error           { return nil }
func (d memVDisk) Size() int64                       { return d.dev.Size() }

func startServer(t *testing.T, exports ...Export) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(exports...)
	go func() { _ = s.Serve(ln) }()
	t.Cleanup(func() { s.Close() })
	return s, ln.Addr().String()
}

func TestReadWriteFlushOverNBD(t *testing.T) {
	disk := memVDisk{simdev.NewMem(16 * block.MiB)}
	_, addr := startServer(t, Export{Name: "test", Disk: disk})
	c, err := Dial(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Size() != 16*block.MiB {
		t.Fatalf("size %d", c.Size())
	}
	data := make([]byte, 8192)
	rand.New(rand.NewSource(1)).Read(data)
	if err := c.WriteAt(data, 4096); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := c.ReadAt(got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("NBD round trip mismatch")
	}
}

func TestUnknownExportRejected(t *testing.T) {
	_, addr := startServer(t, Export{Name: "only", Disk: memVDisk{simdev.NewMem(1 << 20)}})
	if _, err := Dial(addr, "nope"); err == nil {
		t.Fatal("unknown export accepted")
	}
}

func TestDefaultExport(t *testing.T) {
	_, addr := startServer(t, Export{Name: "only", Disk: memVDisk{simdev.NewMem(1 << 20)}})
	c, err := Dial(addr, "")
	if err != nil {
		t.Fatalf("default export: %v", err)
	}
	c.Close()
}

func TestList(t *testing.T) {
	_, addr := startServer(t,
		Export{Name: "a", Disk: memVDisk{simdev.NewMem(1 << 20)}},
		Export{Name: "b", Disk: memVDisk{simdev.NewMem(1 << 20)}},
	)
	names, err := List(addr)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("list %v", names)
	}
}

func TestIOErrorsReportedNotFatal(t *testing.T) {
	disk := memVDisk{simdev.NewMem(1 << 20)}
	_, addr := startServer(t, Export{Name: "t", Disk: disk})
	c, err := Dial(addr, "t")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Out-of-bounds read: error reply, connection survives.
	if err := c.ReadAt(make([]byte, 4096), 2<<20); err == nil {
		t.Fatal("OOB read succeeded")
	}
	if err := c.WriteAt(make([]byte, 4096), 0); err != nil {
		t.Fatalf("connection dead after error: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	disk := memVDisk{simdev.NewMem(64 * block.MiB)}
	_, addr := startServer(t, Export{Name: "t", Disk: disk})
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			c, err := Dial(addr, "t")
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			buf := bytes.Repeat([]byte{byte(g + 1)}, 4096)
			rd := make([]byte, 4096)
			for i := 0; i < 50; i++ {
				off := int64(g)*(8<<20) + int64(i)*4096
				if err := c.WriteAt(buf, off); err != nil {
					done <- err
					return
				}
				if err := c.ReadAt(rd, off); err != nil {
					done <- err
					return
				}
				if rd[0] != byte(g+1) {
					done <- bytes.ErrTooLarge
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestLSVDOverNBD drives a real LSVD volume through the NBD server —
// the full paper stack minus the kernel.
func TestLSVDOverNBD(t *testing.T) {
	disk, err := core.Create(context.Background(), core.Options{
		HostOptions:   core.HostOptions{Store: objstore.NewMem(), CacheDev: simdev.NewMem(128 * block.MiB)},
		VolumeOptions: core.VolumeOptions{Volume: "vol", VolBytes: 128 * block.MiB},
	})
	if err != nil {
		t.Fatal(err)
	}
	var _ vdisk.Disk = disk
	_, addr := startServer(t, Export{Name: "lsvd", Disk: disk})
	c, err := Dial(addr, "lsvd")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := make([]byte, 64*1024)
	rand.New(rand.NewSource(2)).Read(data)
	if err := c.WriteAt(data, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Trim(1<<20, 4096); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := c.ReadAt(got, 1<<20); err != nil {
		t.Fatal(err)
	}
	want := append([]byte{}, data...)
	for i := 0; i < 4096; i++ {
		want[i] = 0
	}
	if !bytes.Equal(got, want) {
		t.Fatal("LSVD-over-NBD data mismatch")
	}
}

// TestPipelinedQueueDepth issues a window of requests on ONE
// connection before collecting any reply, exercising the server's
// per-connection worker pool (replies may arrive in any order and are
// matched by handle).
func TestPipelinedQueueDepth(t *testing.T) {
	disk := memVDisk{simdev.NewMem(64 * block.MiB)}
	_, addr := startServer(t, Export{Name: "t", Disk: disk})
	c, err := Dial(addr, "t")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const window = 16
	const bs = 4096
	pattern := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, bs) }

	// Pipelined writes: all requests on the wire before any reply.
	writeHandles := make(map[uint64]int, window)
	for i := 0; i < window; i++ {
		h, err := c.request(cmdWrite, uint64(i*bs), bs, pattern(i))
		if err != nil {
			t.Fatal(err)
		}
		writeHandles[h] = i
	}
	readReply := func() (uint64, uint32) {
		var hdr [16]byte
		if _, err := io.ReadFull(c.conn, hdr[:]); err != nil {
			t.Fatal(err)
		}
		if binary.BigEndian.Uint32(hdr[0:]) != simpleReplyMagic {
			t.Fatal("bad reply magic")
		}
		return binary.BigEndian.Uint64(hdr[8:]), binary.BigEndian.Uint32(hdr[4:])
	}
	for i := 0; i < window; i++ {
		h, errno := readReply()
		if _, ok := writeHandles[h]; !ok {
			t.Fatalf("unknown write reply handle %d", h)
		}
		delete(writeHandles, h)
		if errno != 0 {
			t.Fatalf("write errno %d", errno)
		}
	}

	// Pipelined reads: replies carry payloads; match by handle.
	readHandles := make(map[uint64]int, window)
	for i := 0; i < window; i++ {
		h, err := c.request(cmdRead, uint64(i*bs), bs, nil)
		if err != nil {
			t.Fatal(err)
		}
		readHandles[h] = i
	}
	for i := 0; i < window; i++ {
		h, errno := readReply()
		idx, ok := readHandles[h]
		if !ok {
			t.Fatalf("unknown read reply handle %d", h)
		}
		delete(readHandles, h)
		if errno != 0 {
			t.Fatalf("read errno %d", errno)
		}
		got := make([]byte, bs)
		if _, err := io.ReadFull(c.conn, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pattern(idx)) {
			t.Fatalf("read %d returned wrong data", idx)
		}
	}
}

// TestTwoExportsConcurrentClients serves two exports from ONE server
// and hammers both from concurrent clients — the multi-volume host
// topology (one NBD endpoint, one export per volume). Each export
// must see only its own clients' writes.
func TestTwoExportsConcurrentClients(t *testing.T) {
	diskA := memVDisk{simdev.NewMem(32 * block.MiB)}
	diskB := memVDisk{simdev.NewMem(32 * block.MiB)}
	_, addr := startServer(t,
		Export{Name: "volA", Disk: diskA},
		Export{Name: "volB", Disk: diskB},
	)

	const clientsPerExport = 3
	const iters = 40
	done := make(chan error, 2*clientsPerExport)
	hammer := func(export string, tag byte, id int) {
		c, err := Dial(addr, export)
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		r := rand.New(rand.NewSource(int64(id)))
		buf := make([]byte, 8192)
		for i := 0; i < iters; i++ {
			// Each client owns a disjoint stripe of its export, tagged
			// with the export's byte so cross-export bleed is caught.
			off := int64(id)*8*block.MiB + r.Int63n(512)*8192
			for j := range buf {
				buf[j] = tag ^ byte(i)
			}
			if err := c.WriteAt(buf, off); err != nil {
				done <- err
				return
			}
			got := make([]byte, len(buf))
			if err := c.ReadAt(got, off); err != nil {
				done <- err
				return
			}
			if !bytes.Equal(got, buf) {
				done <- io.ErrUnexpectedEOF
				return
			}
			if i%8 == 0 {
				if err := c.Flush(); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}
	for id := 0; id < clientsPerExport; id++ {
		go hammer("volA", 0xA0, id)
		go hammer("volB", 0xB0, id)
	}
	for i := 0; i < 2*clientsPerExport; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
