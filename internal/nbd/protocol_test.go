package nbd

import (
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/simdev"
	"lsvd/internal/vdisk"
)

// protoConn starts a server handling one raw net.Pipe connection and
// returns the client end (with a deadline so a protocol bug fails the
// test instead of hanging it) plus the channel carrying handle()'s
// return value.
func protoConn(t *testing.T) (net.Conn, chan error) {
	t.Helper()
	return protoConnTo(t, memVDisk{dev: simdev.NewMem(block.MiB)})
}

// protoConnTo is protoConn serving disk, of block.MiB bytes, as "d".
func protoConnTo(t *testing.T, disk vdisk.Disk) (net.Conn, chan error) {
	t.Helper()
	s := NewServer(Export{Name: "d", Disk: disk})
	client, server := net.Pipe()
	errc := make(chan error, 1)
	go func() {
		defer server.Close()
		errc <- s.handle(server)
	}()
	client.SetDeadline(time.Now().Add(5 * time.Second))
	t.Cleanup(func() { client.Close() })

	// Fixed-newstyle greeting, then send our flags (NoZeroes trims the
	// 124-byte EXPORT_NAME padding out of the tests).
	var hs [18]byte
	if _, err := io.ReadFull(client, hs[:]); err != nil {
		t.Fatalf("reading greeting: %v", err)
	}
	if got := binary.BigEndian.Uint64(hs[0:]); got != nbdMagic {
		t.Fatalf("greeting magic %#x", got)
	}
	if err := binary.Write(client, binary.BigEndian, uint32(flagNoZeroes)); err != nil {
		t.Fatal(err)
	}
	return client, errc
}

func sendOption(t *testing.T, c net.Conn, option uint32, payload []byte) {
	t.Helper()
	hdr := make([]byte, 16)
	binary.BigEndian.PutUint64(hdr[0:], iHaveOpt)
	binary.BigEndian.PutUint32(hdr[8:], option)
	binary.BigEndian.PutUint32(hdr[12:], uint32(len(payload)))
	if _, err := c.Write(append(hdr, payload...)); err != nil {
		t.Fatal(err)
	}
}

// readOptReply returns (replyType, data) for one option reply.
func readOptReply(t *testing.T, c net.Conn) (uint32, []byte) {
	t.Helper()
	var hdr [20]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		t.Fatalf("reading option reply: %v", err)
	}
	if got := binary.BigEndian.Uint64(hdr[0:]); got != uint64(optReplyMagic) {
		t.Fatalf("option reply magic %#x", got)
	}
	n := binary.BigEndian.Uint32(hdr[16:])
	data := make([]byte, n)
	if _, err := io.ReadFull(c, data); err != nil {
		t.Fatal(err)
	}
	return binary.BigEndian.Uint32(hdr[12:]), data
}

func waitClosed(t *testing.T, errc chan error) {
	t.Helper()
	select {
	case <-errc:
	case <-time.After(5 * time.Second):
		t.Fatal("server did not close the connection")
	}
}

func TestNegotiateOversizedOptionPayload(t *testing.T) {
	c, errc := protoConn(t)
	// Claim a 2 MiB payload (limit is 1 MiB) but send none: the server
	// must reject on the declared length alone, without trying to read
	// or allocate it.
	hdr := make([]byte, 16)
	binary.BigEndian.PutUint64(hdr[0:], iHaveOpt)
	binary.BigEndian.PutUint32(hdr[8:], optGo)
	binary.BigEndian.PutUint32(hdr[12:], 2<<20)
	if _, err := c.Write(hdr); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, errc)
}

func TestNegotiateBadOptionMagic(t *testing.T) {
	c, errc := protoConn(t)
	var junk [16]byte
	binary.BigEndian.PutUint64(junk[0:], 0xdeadbeefdeadbeef)
	if _, err := c.Write(junk[:]); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, errc)
}

func TestNegotiateShortOptionHeader(t *testing.T) {
	c, errc := protoConn(t)
	// Half an option header then EOF: the server must give up cleanly.
	var junk [8]byte
	binary.BigEndian.PutUint64(junk[0:], iHaveOpt)
	if _, err := c.Write(junk[:]); err != nil {
		t.Fatal(err)
	}
	c.Close()
	waitClosed(t, errc)
}

func TestNegotiateUnknownOptionThenAbort(t *testing.T) {
	c, errc := protoConn(t)
	sendOption(t, c, 999, []byte("payload"))
	if rep, _ := readOptReply(t, c); rep != repErrUnsup {
		t.Fatalf("unknown option reply %#x, want repErrUnsup", rep)
	}
	// The connection must survive the unsupported option.
	sendOption(t, c, optAbort, nil)
	if rep, _ := readOptReply(t, c); rep != repAck {
		t.Fatalf("abort reply %#x, want ack", rep)
	}
	waitClosed(t, errc)
}

func TestNegotiateGoMalformedPayloads(t *testing.T) {
	c, errc := protoConn(t)
	// Payload shorter than the 4-byte name length + 2-byte info count.
	sendOption(t, c, optGo, []byte{0, 0})
	if rep, _ := readOptReply(t, c); rep != repErrInvalid {
		t.Fatalf("short GO payload reply %#x, want repErrInvalid", rep)
	}
	// Name length pointing past the payload end.
	bad := make([]byte, 6)
	binary.BigEndian.PutUint32(bad, 500)
	sendOption(t, c, optGo, bad)
	if rep, _ := readOptReply(t, c); rep != repErrInvalid {
		t.Fatalf("overlong name reply %#x, want repErrInvalid", rep)
	}
	// Unknown export name.
	unknown := make([]byte, 6+7)
	binary.BigEndian.PutUint32(unknown, 7)
	copy(unknown[4:], "missing")
	sendOption(t, c, optGo, unknown)
	if rep, _ := readOptReply(t, c); rep != repErrUnknown {
		t.Fatalf("unknown export reply %#x, want repErrUnknown", rep)
	}
	// And after all that abuse, a well-formed GO still works.
	good := make([]byte, 6+1)
	binary.BigEndian.PutUint32(good, 1)
	good[4] = 'd'
	sendOption(t, c, optGo, good)
	if rep, data := readOptReply(t, c); rep != repInfo || len(data) != 12 {
		t.Fatalf("good GO reply %#x with %d bytes, want repInfo/12", rep, len(data))
	}
	if rep, _ := readOptReply(t, c); rep != repAck {
		t.Fatal("missing final ack for GO")
	}
	// Now in transmission: disconnect.
	sendRequest(t, c, cmdDisc, 1, 0, 0, nil)
	waitClosed(t, errc)
}

func sendRequest(t *testing.T, c net.Conn, typ uint16, handle, offset uint64, length uint32, data []byte) {
	t.Helper()
	hdr := make([]byte, 28)
	binary.BigEndian.PutUint32(hdr[0:], requestMagic)
	binary.BigEndian.PutUint16(hdr[6:], typ)
	binary.BigEndian.PutUint64(hdr[8:], handle)
	binary.BigEndian.PutUint64(hdr[16:], offset)
	binary.BigEndian.PutUint32(hdr[24:], length)
	if _, err := c.Write(append(hdr, data...)); err != nil {
		t.Fatal(err)
	}
}

// enterTransmission completes the handshake via EXPORT_NAME.
func enterTransmission(t *testing.T, c net.Conn) {
	t.Helper()
	sendOption(t, c, optExportName, []byte("d"))
	var resp [10]byte
	if _, err := io.ReadFull(c, resp[:]); err != nil {
		t.Fatalf("reading export response: %v", err)
	}
	if size := binary.BigEndian.Uint64(resp[0:]); size != uint64(block.MiB) {
		t.Fatalf("export size %d", size)
	}
}

func readSimpleReply(t *testing.T, c net.Conn, payload int) (uint64, uint32, []byte) {
	t.Helper()
	var hdr [16]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		t.Fatalf("reading reply: %v", err)
	}
	if got := binary.BigEndian.Uint32(hdr[0:]); got != simpleReplyMagic {
		t.Fatalf("reply magic %#x", got)
	}
	errno := binary.BigEndian.Uint32(hdr[4:])
	handle := binary.BigEndian.Uint64(hdr[8:])
	var data []byte
	if errno == 0 && payload > 0 {
		data = make([]byte, payload)
		if _, err := io.ReadFull(c, data); err != nil {
			t.Fatal(err)
		}
	}
	return handle, errno, data
}

func TestRequestUnknownCommand(t *testing.T) {
	c, errc := protoConn(t)
	enterTransmission(t, c)
	sendRequest(t, c, 77, 42, 0, 0, nil)
	handle, errno, _ := readSimpleReply(t, c, 0)
	if handle != 42 || errno != errNoSup {
		t.Fatalf("unknown command reply handle=%d errno=%d, want 42/ENOTSUP", handle, errno)
	}
	// The connection survives: a normal read still works.
	sendRequest(t, c, cmdRead, 43, 0, 512, nil)
	if handle, errno, data := readSimpleReply(t, c, 512); handle != 43 || errno != 0 || len(data) != 512 {
		t.Fatalf("read after unknown command: handle=%d errno=%d", handle, errno)
	}
	sendRequest(t, c, cmdDisc, 44, 0, 0, nil)
	waitClosed(t, errc)
}

func TestRequestOversizedLength(t *testing.T) {
	c, errc := protoConn(t)
	enterTransmission(t, c)
	// A 64 MiB read (limit 32 MiB) must drop the connection, not
	// allocate the buffer.
	sendRequest(t, c, cmdRead, 1, 0, 64<<20, nil)
	waitClosed(t, errc)
}

func TestRequestBadMagic(t *testing.T) {
	c, errc := protoConn(t)
	enterTransmission(t, c)
	var junk [28]byte
	binary.BigEndian.PutUint32(junk[0:], 0x12345678)
	if _, err := c.Write(junk[:]); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, errc)
}

func TestRequestShortHeaderMidRead(t *testing.T) {
	c, errc := protoConn(t)
	enterTransmission(t, c)
	// 10 of the 28 header bytes, then EOF: the server must exit its
	// read loop rather than wait forever or misparse.
	partial := make([]byte, 10)
	binary.BigEndian.PutUint32(partial[0:], requestMagic)
	if _, err := c.Write(partial); err != nil {
		t.Fatal(err)
	}
	c.Close()
	waitClosed(t, errc)
}

func TestRequestWritePayloadTruncated(t *testing.T) {
	c, errc := protoConn(t)
	enterTransmission(t, c)
	// A write claiming 4096 bytes but delivering 100 then EOF.
	sendRequest(t, c, cmdWrite, 7, 0, 4096, make([]byte, 100))
	c.Close()
	waitClosed(t, errc)
}

// recDisk records the length of every write that reaches it, and its
// Flush returns only once release is closed, after announcing itself
// on flushing.
type recDisk struct {
	memVDisk
	writes            chan int
	flushing, release chan struct{}
}

func newRecDisk() recDisk {
	return recDisk{memVDisk{simdev.NewMem(block.MiB)}, make(chan int, 8), make(chan struct{}, 1), make(chan struct{})}
}

func (d recDisk) WriteAt(p []byte, off int64) error {
	d.writes <- len(p)
	return d.memVDisk.WriteAt(p, off)
}

func (d recDisk) Flush() error {
	d.flushing <- struct{}{}
	<-d.release
	return d.memVDisk.Flush()
}

// TestWriteReachesDiskWithItsDeclaredLength: a write reaches the disk
// with exactly the bytes its header declares before its reply, which
// carries its handle; one whose payload is cut short never reaches the
// disk.
func TestWriteReachesDiskWithItsDeclaredLength(t *testing.T) {
	d := newRecDisk()
	c, errc := protoConnTo(t, d)
	enterTransmission(t, c)
	sendRequest(t, c, cmdWrite, 5, 4096, 1024, make([]byte, 1024))
	if handle, errno, _ := readSimpleReply(t, c, 0); handle != 5 || errno != 0 {
		t.Fatalf("write reply handle=%d errno=%d, want 5/0", handle, errno)
	}
	select {
	case n := <-d.writes:
		if n != 1024 {
			t.Fatalf("the disk got a write of %d bytes, want 1024", n)
		}
	default:
		t.Fatal("the write was acknowledged before it reached the disk")
	}
	sendRequest(t, c, cmdWrite, 6, 0, 4096, make([]byte, 100))
	c.Close()
	waitClosed(t, errc)
	select {
	case n := <-d.writes:
		t.Fatalf("a write cut short reached the disk with %d bytes", n)
	default:
	}
}

// TestFlushReplyWaitsForDiskFlush: the reply to a flush, with its
// handle, is sent only once Disk.Flush has returned.
func TestFlushReplyWaitsForDiskFlush(t *testing.T) {
	d := newRecDisk()
	c, errc := protoConnTo(t, d)
	enterTransmission(t, c)
	sendRequest(t, c, cmdFlush, 9, 0, 0, nil)
	replies := make(chan [16]byte, 1)
	go func() {
		var hdr [16]byte
		if _, err := io.ReadFull(c, hdr[:]); err == nil {
			replies <- hdr
		}
	}()
	released := false
	defer func() {
		if !released {
			close(d.release) // let the server finish on a failed run
		}
	}()
	select {
	case <-d.flushing:
	case <-replies:
		t.Fatal("the server replied to a flush before calling Disk.Flush")
	}
	select {
	case <-replies:
		t.Fatal("the server replied while Disk.Flush had not returned")
	case <-time.After(50 * time.Millisecond):
	}
	released = true
	close(d.release)
	hdr := <-replies
	if handle, errno := binary.BigEndian.Uint64(hdr[8:]), binary.BigEndian.Uint32(hdr[4:]); handle != 9 || errno != 0 {
		t.Fatalf("flush reply handle=%d errno=%d, want 9/0", handle, errno)
	}
	sendRequest(t, c, cmdDisc, 10, 0, 0, nil)
	waitClosed(t, errc)
}
