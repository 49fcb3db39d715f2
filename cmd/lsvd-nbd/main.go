// Command lsvd-nbd serves an LSVD volume as a Network Block Device
// export, the deployment path replacing the paper prototype's kernel
// module (§3.7 / DESIGN.md).
//
//	lsvd-nbd -store /var/lib/lsvd/objects -cache /var/lib/lsvd/cache.img \
//	         -cache-size 10G -volume vm1 -create -size 100G -listen :10809
//
// Then on a client: nbd-client <host> 10809 /dev/nbd0 -name vm1
//
// SIGTERM or SIGINT closes the volume and exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"lsvd"
	"lsvd/internal/invariant"
)

func parseSize(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "T"):
		mult, s = lsvd.TiB, strings.TrimSuffix(s, "T")
	case strings.HasSuffix(s, "G"):
		mult, s = lsvd.GiB, strings.TrimSuffix(s, "G")
	case strings.HasSuffix(s, "M"):
		mult, s = lsvd.MiB, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "K"):
		mult, s = lsvd.KiB, strings.TrimSuffix(s, "K")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid size %q", s)
	}
	return n * mult, nil
}

func main() {
	storeDir := flag.String("store", "", "object store directory (required)")
	cachePath := flag.String("cache", "", "cache device file (required)")
	cacheSize := flag.String("cache-size", "1G", "cache device size")
	volume := flag.String("volume", "vol", "volume name")
	create := flag.Bool("create", false, "create the volume instead of opening it")
	size := flag.String("size", "10G", "volume size (with -create)")
	listen := flag.String("listen", "127.0.0.1:10809", "NBD listen address")
	storeNoSync := flag.Bool("store-nosync", false, "skip object-store fsyncs (faster, loses crash durability)")
	retryAttempts := flag.Int("retry-attempts", 0, "backend retry attempt budget per op (0 = default, <0 disables retries)")
	fetchDepth := flag.Int("fetch-depth", 0, "concurrent backend range GETs on the read-miss path (0 = default, 1 = serial)")
	flag.Parse()

	if *storeDir == "" || *cachePath == "" {
		log.Fatal("-store and -cache are required")
	}
	newStore := lsvd.DirStore
	if *storeNoSync {
		newStore = lsvd.DirStoreNoSync
	}
	store, err := newStore(*storeDir)
	if err != nil {
		log.Fatal(err)
	}
	cb, err := parseSize(*cacheSize)
	if err != nil {
		log.Fatal(err)
	}
	cache, err := lsvd.FileCacheDevice(*cachePath, cb)
	if err != nil {
		log.Fatal(err)
	}
	opts := lsvd.VolumeOptions{
		Name: *volume, Store: store, Cache: cache,
		Retry:      lsvd.RetryPolicy{MaxAttempts: *retryAttempts},
		FetchDepth: *fetchDepth,
	}
	ctx := context.Background()

	var disk *lsvd.Disk
	if *create {
		if opts.Size, err = parseSize(*size); err != nil {
			log.Fatal(err)
		}
		disk, err = lsvd.Create(ctx, opts)
	} else {
		disk, err = lsvd.Open(ctx, opts)
	}
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	// SIGTERM or SIGINT stops accepting and closes the volume, which
	// destages and checkpoints it, before a clean exit.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, os.Interrupt)
	served := make(chan error, 1)
	invariant.Go("lsvd-nbd-serve", func() { served <- lsvd.ServeNBD(ln, *volume, disk) })
	log.Printf("serving volume %q (%d bytes) on %s", *volume, disk.Size(), ln.Addr())
	select {
	case err := <-served:
		log.Fatal(err)
	case sig := <-stop:
		log.Printf("%v: closing volume %q", sig, *volume)
		ln.Close()
	}
	if err := disk.Close(); err != nil {
		log.Fatal(err)
	}
}
