//go:build ignore

// Generates the checked-in seed corpora for FuzzDecode and FuzzCombine:
//
//	go run gen_corpus.go
//
// Entries mirror the in-code f.Add seeds so `go test -run Fuzz`
// replays them even without -fuzz. The aligned-* entries hold the 4 KiB
// framing that only the benchmark's ladder still encodes; they are kept
// as written and not regenerated here.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"

	"lsvd/internal/block"
	"lsvd/internal/journal"
)

func main() {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	write := func(name string, buf []byte, align bool) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\nbool(%v)\n", strconv.Quote(string(buf)), align)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	data := bytes.Repeat([]byte{0xa5}, 2*block.SectorSize)
	h := &journal.Header{
		Type: journal.TypeData, Seq: 7, Epoch: 3, WriteSeq: 9, DataLen: uint64(len(data)),
		Extents: []journal.ExtentEntry{{LBA: 8, Sectors: 2, SrcSeq: 7}},
	}
	sector, err := journal.Encode(h, data, false)
	if err != nil {
		log.Fatal(err)
	}
	write("sector-record", sector, false)
	write("sector-short-header", sector[:30], false)

	pad, err := journal.Encode(&journal.Header{Type: journal.TypePad, Seq: 1, Epoch: 1}, nil, false)
	if err != nil {
		log.Fatal(err)
	}
	write("pad-record", pad, false)
	write("garbage", []byte("not a journal record"), false)

	// FuzzCombine(a, b []byte, rep uint32): b is tiled rep times, so a
	// few bytes of corpus reach each tail length the write path produces.
	dir = filepath.Join("testdata", "fuzz", "FuzzCombine")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	combine := func(name string, a, b []byte, rep uint32) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n[]byte(%s)\nuint32(%d)\n", strconv.Quote(string(a)), strconv.Quote(string(b)), rep)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	combine("empty-empty", nil, nil, 1)
	combine("tail-1", []byte("header"), []byte{0}, 1)
	combine("tail-511", []byte{0xff}, []byte("0123456"), 73)
	combine("tail-4k", []byte("a"), bytes.Repeat([]byte{0xa5}, 64), 64)
	combine("tail-128k", []byte("LSVD"), []byte("\x00\x01\x02\x03\x04\x05\x06\x07"), 16<<10)
	combine("tail-8m-plus-1", nil, []byte("abc"), 2796203)
}
