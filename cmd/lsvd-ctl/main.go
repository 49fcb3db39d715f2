// Command lsvd-ctl administers LSVD volumes on an object store
// directory: create, info, snapshot, clone, gc, checkpoint, fsck.
//
//	lsvd-ctl -store DIR create VOLUME SIZE
//	lsvd-ctl -store DIR info VOLUME
//	lsvd-ctl -store DIR snapshot VOLUME NAME
//	lsvd-ctl -store DIR delete-snapshot VOLUME NAME
//	lsvd-ctl -store DIR clone BASE SNAPSHOT NEWVOLUME
//	lsvd-ctl -store DIR gc VOLUME
//	lsvd-ctl -store DIR checkpoint VOLUME
//	lsvd-ctl -store DIR fsck VOLUME
//	lsvd-ctl -store DIR [-cache FILE] volumes
//
// `volumes` lists every volume of a multi-volume host bucket
// (key layout "vol/<name>/…", slot table at "host/slots") with
// per-volume stats, a host-aggregate line, and — when the host's
// cache SSD image is given via -cache — the shared read arena's
// per-volume occupancy, so cross-tenant fairness is observable.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"lsvd/internal/block"
	"lsvd/internal/blockstore"
	"lsvd/internal/host"
	"lsvd/internal/objstore"
	"lsvd/internal/simdev"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: lsvd-ctl -store DIR [-cache FILE] {create|info|snapshot|delete-snapshot|clone|gc|checkpoint|fsck|volumes} ARGS...")
	os.Exit(2)
}

func main() {
	storeDir := flag.String("store", "", "object store directory (required)")
	cachePath := flag.String("cache", "", "host cache SSD image (volumes: arena occupancy)")
	maxVolumes := flag.Int("max-volumes", 0, "host slot count the cache was carved with (default 8)")
	wcFrac := flag.Float64("wc-frac", 0, "host write-cache fraction the cache was carved with (default 0.2)")
	flag.Parse()
	args := flag.Args()
	if *storeDir == "" || len(args) < 1 {
		usage()
	}
	dirStore, err := objstore.NewDir(*storeDir)
	if err != nil {
		log.Fatal(err)
	}
	// Meter every backend op this invocation performs, so the
	// host-aggregate line reports real GET/PUT counts.
	meter := &objstore.Metered{Inner: dirStore}
	var store objstore.Store = meter
	ctx := context.Background()

	openVol := func(name string) *blockstore.Store {
		s, err := blockstore.Open(ctx, blockstore.Config{Volume: name, Store: store})
		if err != nil {
			log.Fatal(err)
		}
		return s
	}

	switch cmd, rest := args[0], args[1:]; cmd {
	case "create":
		if len(rest) != 2 {
			usage()
		}
		size, err := parseSize(rest[1])
		if err != nil {
			log.Fatal(err)
		}
		s, err := blockstore.Create(ctx, blockstore.Config{
			Volume: rest[0], Store: store, VolSectors: block.LBAFromBytes(size),
		})
		if err != nil {
			log.Fatal(err)
		}
		_ = s.Checkpoint()
		fmt.Printf("created volume %q (%d bytes)\n", rest[0], size)

	case "info":
		if len(rest) != 1 {
			usage()
		}
		s := openVol(rest[0])
		st := s.Stats()
		base, baseSeq := s.BaseImage()
		fmt.Printf("volume:       %s\n", rest[0])
		fmt.Printf("size:         %d bytes\n", s.VolSectors().Bytes())
		fmt.Printf("objects:      %d (next seq %d)\n", st.Objects, st.NextSeq)
		fmt.Printf("live data:    %d MiB of %d MiB (util %.2f)\n",
			st.LiveSectors*block.SectorSize/(1<<20), st.DataSectors*block.SectorSize/(1<<20), s.Utilization())
		fmt.Printf("map extents:  %d\n", st.MapExtents)
		fmt.Printf("read path:    %d GETs, %d deduped, %d runs coalesced, %d header fetches\n",
			st.FetchGETs, st.FetchesDeduped, st.RunsCoalesced, st.HeaderFetches)
		if base != "" {
			fmt.Printf("clone of:     %s@%d\n", base, baseSeq)
		}
		for _, sn := range s.Snapshots() {
			fmt.Printf("snapshot:     %s (seq %d)\n", sn.Name, sn.Seq)
		}

	case "snapshot":
		if len(rest) != 2 {
			usage()
		}
		s := openVol(rest[0])
		info, err := s.CreateSnapshot(rest[1])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("snapshot %q at seq %d\n", info.Name, info.Seq)

	case "delete-snapshot":
		if len(rest) != 2 {
			usage()
		}
		if err := openVol(rest[0]).DeleteSnapshot(rest[1]); err != nil {
			log.Fatal(err)
		}
		fmt.Println("deleted")

	case "clone":
		if len(rest) != 3 {
			usage()
		}
		if err := blockstore.Clone(ctx, blockstore.Config{Volume: rest[0], Store: store}, rest[1], rest[2]); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("cloned %s@%s -> %s\n", rest[0], rest[1], rest[2])

	case "gc":
		if len(rest) != 1 {
			usage()
		}
		s := openVol(rest[0])
		before := s.Stats()
		if err := s.RunGC(); err != nil {
			log.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			log.Fatal(err)
		}
		after := s.Stats()
		fmt.Printf("gc: %d objects deleted, utilization %.2f\n",
			after.ObjectsDeleted-before.ObjectsDeleted, s.Utilization())

	case "checkpoint":
		if len(rest) != 1 {
			usage()
		}
		if err := openVol(rest[0]).Checkpoint(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("checkpointed")

	case "volumes":
		if len(rest) != 0 {
			usage()
		}
		names := hostVolumes(ctx, store)
		if len(names) == 0 {
			fmt.Println("no host volumes (bucket has no host/slots table)")
			return
		}
		var totalObjects int
		var totalLive, totalData uint64
		for _, name := range names {
			vs, err := objstore.NewPrefixed(store, "vol/"+name+"/")
			if err != nil {
				log.Fatal(err)
			}
			s, err := blockstore.Open(ctx, blockstore.Config{Volume: name, Store: vs})
			if err != nil {
				fmt.Printf("volume %-12s ERROR: %v\n", name, err)
				continue
			}
			st := s.Stats()
			totalObjects += st.Objects
			totalLive += st.LiveSectors
			totalData += st.DataSectors
			fmt.Printf("volume %-12s %8d MiB  %4d objects  util %.2f  map %d extents\n",
				name, s.VolSectors().Bytes()/(1<<20), st.Objects, s.Utilization(), st.MapExtents)
			// Open/recovery telemetry for the open this command just
			// performed: how much uncheckpointed suffix was replayed,
			// the backend reads it cost, and the map-snapshot stall the
			// last checkpoint would impose on foreground writes.
			fmt.Printf("  %-12s open %.1f ms  %d objects replayed  %d recovery GETs  last ckpt stall %.1f us\n",
				"", float64(st.OpenNanos)/1e6, st.RecoveredObjects, st.RecoveryGETs,
				float64(st.LastCkptStallNanos)/1e3)
		}
		ops := meter.Stats()
		fmt.Printf("host: %d volumes, %d objects, %d MiB live of %d MiB, BackendGETs %d PUTs %d\n",
			len(names), totalObjects,
			totalLive*block.SectorSize/(1<<20), totalData*block.SectorSize/(1<<20),
			ops.Gets+ops.GetRanges, ops.Puts)
		// The stats snapshot is advisory observability: a bucket no host
		// ever closed cleanly (or a snapshot from a different layout) is
		// normal, so degrade to "n/a" — never to a fatal error.
		vols, err := host.LoadStatsSnapshot(ctx, store)
		switch {
		case err != nil:
			fmt.Printf("write path (last session): n/a (%v)\n", err)
		case len(vols) == 0:
			fmt.Println("write path (last session): n/a (no host/stats snapshot)")
		default:
			fmt.Println("write path (last session):")
			for _, v := range vols {
				st, wc, be := v.Stats, v.Stats.WriteCache, v.Stats.Backend
				var avg float64
				if wc.GroupBatches > 0 {
					avg = float64(wc.GroupRecords) / float64(wc.GroupBatches)
				}
				fmt.Printf("  %-12s %8d writes  %6d group batches (avg %.1f recs, hist %s)\n",
					v.Name, st.Writes, wc.GroupBatches, avg, histString(wc.BatchSizeHist[:]))
				fmt.Printf("  %-12s reserve waits %d  ring kick/fence %d/%d  seal stalls %d  upload grant/borrow/wait %d/%d/%d\n",
					"", wc.ReserveWaits, st.RingKicks, st.RingFences, be.SealStalls,
					be.UploadGrants, be.UploadBorrows, be.UploadWaits)
				fmt.Printf("  %-12s runs coalesced %d\n", "", be.RunsCoalesced)
			}
			fmt.Println("gc (last session):")
			for _, v := range vols {
				be := v.Stats.Backend
				var waf float64
				if be.BytesAppended > 0 {
					waf = float64(be.BytesAppended+be.GCBytesCopied) / float64(be.BytesAppended)
				}
				fmt.Printf("  %-12s %4d runs  %4d victims  %6d MiB copied  waf %.2f measured / %.2f target  pace/backoff/yield %d/%d/%d\n",
					v.Name, be.GCRuns, be.GCVictims, be.GCBytesCopied/(1<<20),
					waf, be.GCWAFTarget, be.GCPaceWaits, be.GCBackoffs, be.GCYields)
			}
			replicated := false
			for _, v := range vols {
				if !v.Stats.ReplicaEnabled {
					continue
				}
				if !replicated {
					replicated = true
					fmt.Println("replication (last session):")
				}
				// Lag is the residual at close time: zero after a clean drain.
				r := v.Stats.Replica
				fmt.Printf("  %-12s shipped seq %d  lag %d objs / %d KiB  copied %d objs / %d MiB\n",
					v.Name, r.ShippedSeq, r.LagObjects, r.LagBytes/1024,
					r.CopiedObjects, r.CopiedBytes/(1<<20))
				fmt.Printf("  %-12s retries %d  errors %d  stalls on lag bound %d  last ship %.1f us\n",
					"", r.Retries, r.Errors, v.Stats.ReplicaStalls, float64(r.LastShipNanos)/1e3)
			}
			if !replicated {
				fmt.Println("replication (last session): off")
			}
		}
		if *cachePath != "" {
			fi, err := os.Stat(*cachePath)
			if err != nil {
				log.Fatal(err)
			}
			dev, err := simdev.OpenFile(*cachePath, fi.Size())
			if err != nil {
				log.Fatal(err)
			}
			ast, err := host.InspectArena(dev, *maxVolumes, *wcFrac)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("arena: %d/%d slabs live (%d MiB each), fair share %d slabs/volume\n",
				ast.LiveSlabs, ast.Slabs, ast.SlabBytes/(1<<20), ast.FairShareSlabs)
			for _, occ := range ast.Views {
				name := occ.Volume
				if name == "" {
					name = "(default)"
				}
				fmt.Printf("arena: %-12s %3d slabs  %6d KiB cached\n", name, occ.Slabs, occ.Bytes/1024)
			}
		}

	case "fsck":
		if len(rest) != 1 {
			usage()
		}
		// Opening performs full recovery: prefix validation, stranded
		// object deletion, and map reconstruction. Reaching here means
		// the volume is consistent.
		s := openVol(rest[0])
		st := s.Stats()
		fmt.Printf("ok: %d objects, %d map extents, durable write seq %d\n",
			st.Objects, st.MapExtents, st.DurableWriteSeq)

	default:
		usage()
	}
}

// hostVolumes reads the host's volume list from its slot table,
// falling back to listing the "vol/" namespace.
func hostVolumes(ctx context.Context, store objstore.Store) []string {
	set := map[string]bool{}
	if raw, err := store.Get(ctx, "host/slots"); err == nil {
		var f struct {
			Slots map[string]int `json:"slots"`
		}
		if json.Unmarshal(raw, &f) == nil {
			for name := range f.Slots {
				set[name] = true
			}
		}
	} else if !errors.Is(err, objstore.ErrNotFound) {
		log.Fatal(err)
	}
	if keys, err := store.List(ctx, "vol/"); err == nil {
		for _, k := range keys {
			if rest, ok := strings.CutPrefix(k, "vol/"); ok {
				if name, _, ok := strings.Cut(rest, "/"); ok && name != "" {
					set[name] = true
				}
			}
		}
	}
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// histString renders a group-commit batch-size histogram compactly,
// skipping empty buckets: "1:120 2:34 ≤8:7". Bucket b covers batch
// sizes up to 2^b records.
func histString(hist []uint64) string {
	var b strings.Builder
	for i, n := range hist {
		if n == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		if i < 2 {
			fmt.Fprintf(&b, "%d:%d", i+1, n)
		} else {
			fmt.Fprintf(&b, "≤%d:%d", 1<<i, n)
		}
	}
	if b.Len() == 0 {
		return "empty"
	}
	return b.String()
}

func parseSize(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "T"):
		mult, s = block.TiB, strings.TrimSuffix(s, "T")
	case strings.HasSuffix(s, "G"):
		mult, s = block.GiB, strings.TrimSuffix(s, "G")
	case strings.HasSuffix(s, "M"):
		mult, s = block.MiB, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "K"):
		mult, s = block.KiB, strings.TrimSuffix(s, "K")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid size %q", s)
	}
	return n * mult, nil
}
