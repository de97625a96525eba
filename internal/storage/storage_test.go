package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/keyspace"
	"repro/internal/transport"
)

// TestRecordRoundtrip frames a representative set of records and decodes them
// back through the replay path.
func TestRecordRoundtrip(t *testing.T) {
	recs := []Record{
		{Kind: RecIdentity, Payload: "127.0.0.1:7001", Aux: "127.0.0.1:7000"},
		{Kind: RecClaim, Epoch: 7, Lo: 100, Hi: 5000},
		{Kind: RecPut, Epoch: 7, Key: 4000, Payload: strings.Repeat("x", 4096)},
		{Kind: RecDelete, Epoch: 7, Key: 4000},
		{Kind: RecReplicaPut, Key: 9000, Payload: ""},
		{Kind: RecReplicaDelete, Key: 9000},
		{Kind: RecRelease},
	}
	var buf []byte
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	off := 0
	for i, want := range recs {
		bodyLen := int(uint32(buf[off]) | uint32(buf[off+1])<<8 | uint32(buf[off+2])<<16 | uint32(buf[off+3])<<24)
		body := buf[off+walHeaderLen : off+walHeaderLen+bodyLen]
		got, err := decodeRecordBody(body)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d: roundtrip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
		off += walHeaderLen + bodyLen
	}
	if off != len(buf) {
		t.Fatalf("decoded %d bytes of %d", off, len(buf))
	}
}

// TestReplayClaimPrunesItems: a claim narrows the range; items outside it are
// pruned on replay (hand-offs journal no per-item deletes).
func TestReplayClaimPrunesItems(t *testing.T) {
	st := newState()
	st.apply(Record{Kind: RecClaim, Epoch: 1, Lo: 0, Hi: 10_000})
	st.apply(Record{Kind: RecPut, Epoch: 1, Key: 2000, Payload: "a"})
	st.apply(Record{Kind: RecPut, Epoch: 1, Key: 8000, Payload: "b"})
	// Split hand-off: the peer re-claims the lower half at a new epoch.
	st.apply(Record{Kind: RecClaim, Epoch: 2, Lo: 0, Hi: 5000})
	if len(st.Items) != 1 || st.Items[2000] != "a" {
		t.Fatalf("claim should prune items outside the new range, got %v", st.Items)
	}
	if st.Epoch != 2 || st.Range.Hi != 5000 {
		t.Fatalf("claim not applied: epoch=%d range=%v", st.Epoch, st.Range)
	}
}

// TestReplayEpochGate: item mutations stamped with a non-live epoch are
// dropped rather than resurrected into the wrong incarnation.
func TestReplayEpochGate(t *testing.T) {
	st := newState()
	st.apply(Record{Kind: RecClaim, Epoch: 3, Lo: 0, Hi: 10_000})
	st.apply(Record{Kind: RecPut, Epoch: 2, Key: 1000, Payload: "stale"})
	if len(st.Items) != 0 {
		t.Fatalf("stale-epoch put must be skipped, got %v", st.Items)
	}
	st.apply(Record{Kind: RecPut, Epoch: 3, Key: 1000, Payload: "live"})
	st.apply(Record{Kind: RecDelete, Epoch: 2, Key: 1000})
	if st.Items[1000] != "live" {
		t.Fatalf("stale-epoch delete must be skipped, got %v", st.Items)
	}
	// Without a range at all, no epoch is live.
	empty := newState()
	empty.apply(Record{Kind: RecPut, Epoch: 0, Key: 1, Payload: "x"})
	if len(empty.Items) != 0 {
		t.Fatalf("put without a claim must be skipped, got %v", empty.Items)
	}
}

// TestReplayRelease: release clears ownership and owned items but keeps held
// replicas (they belong to other peers' incarnations).
func TestReplayRelease(t *testing.T) {
	st := newState()
	st.apply(Record{Kind: RecClaim, Epoch: 1, Lo: 0, Hi: 10_000})
	st.apply(Record{Kind: RecPut, Epoch: 1, Key: 1000, Payload: "a"})
	st.apply(Record{Kind: RecReplicaPut, Key: 9999, Payload: "r"})
	st.apply(Record{Kind: RecRelease})
	if st.HasRange || st.Epoch != 0 || len(st.Items) != 0 {
		t.Fatalf("release must clear ownership: %+v", st)
	}
	if st.Replicas[9999] != "r" {
		t.Fatalf("release must keep held replicas, got %v", st.Replicas)
	}
}

func openTestDisk(t *testing.T, dir string, opts Options) *Disk {
	t.Helper()
	d, err := OpenDisk(dir, opts)
	if err != nil {
		t.Fatalf("OpenDisk(%s): %v", dir, err)
	}
	return d
}

// TestDiskRecovery: append a history, close cleanly, reopen, and get the same
// state back.
func TestDiskRecovery(t *testing.T) {
	dir := t.TempDir()
	d := openTestDisk(t, dir, Options{})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(d.Append(Record{Kind: RecIdentity, Payload: "peer-1", Aux: "boot"}))
	must(d.Append(Record{Kind: RecClaim, Epoch: 4, Lo: 100, Hi: 9000}))
	must(d.Append(Record{Kind: RecPut, Epoch: 4, Key: 500, Payload: "a"}))
	must(d.Append(Record{Kind: RecPut, Epoch: 4, Key: 700, Payload: "b"}))
	must(d.Append(Record{Kind: RecDelete, Epoch: 4, Key: 500}))
	must(d.Append(Record{Kind: RecReplicaPut, Key: 42, Payload: "rep"}))
	must(d.Close())

	d2 := openTestDisk(t, dir, Options{})
	defer d2.Close()
	st, err := d2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.Addr != "peer-1" || st.Bootstrap != "boot" {
		t.Fatalf("identity not recovered: %+v", st)
	}
	if !st.HasRange || st.Epoch != 4 || st.Range.Lo != 100 || st.Range.Hi != 9000 {
		t.Fatalf("claim not recovered: %+v", st)
	}
	if len(st.Items) != 1 || st.Items[700] != "b" {
		t.Fatalf("items not recovered: %v", st.Items)
	}
	if st.Replicas[42] != "rep" {
		t.Fatalf("replicas not recovered: %v", st.Replicas)
	}
	if s := d2.Stats(); s.Name != "disk" || s.Records != 6 {
		t.Fatalf("stats after replay: %+v", s)
	}
}

// TestDiskCrashRecovery: a crash is modeled by NOT calling Close. With
// SyncInterval zero every append is fsynced, so a reopen recovers everything.
func TestDiskCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	d := openTestDisk(t, dir, Options{})
	if err := d.Append(Record{Kind: RecClaim, Epoch: 2, Lo: 0, Hi: 1000}); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(Record{Kind: RecPut, Epoch: 2, Key: 10, Payload: "survives"}); err != nil {
		t.Fatal(err)
	}
	// No Close: the process died here.
	d2 := openTestDisk(t, dir, Options{})
	defer d2.Close()
	st, _ := d2.Load()
	if !st.HasRange || st.Epoch != 2 || st.Items[10] != "survives" {
		t.Fatalf("crash recovery lost fsynced state: %+v", st)
	}
}

// TestDiskSnapshotTruncatesWAL: a snapshot absorbs the log; recovery afterward
// comes from the snapshot alone plus any post-snapshot suffix.
func TestDiskSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	d := openTestDisk(t, dir, Options{})
	if err := d.Append(Record{Kind: RecClaim, Epoch: 1, Lo: 0, Hi: 100}); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(Record{Kind: RecPut, Epoch: 1, Key: 50, Payload: "snapped"}); err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || fi.Size() != 0 {
		t.Fatalf("snapshot must truncate the WAL, size=%v err=%v", fi, err)
	}
	// A post-snapshot append lands in the fresh log suffix.
	if err := d.Append(Record{Kind: RecPut, Epoch: 1, Key: 60, Payload: "suffix"}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openTestDisk(t, dir, Options{})
	defer d2.Close()
	st, _ := d2.Load()
	if st.Items[50] != "snapped" || st.Items[60] != "suffix" {
		t.Fatalf("snapshot+suffix recovery wrong: %v", st.Items)
	}
	if s := d2.Stats(); s.Records != 1 {
		t.Fatalf("only the suffix should replay as WAL records, got %d", s.Records)
	}
}

// TestDiskAutoSnapshot: SnapshotEvery triggers without an explicit call.
func TestDiskAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	d := openTestDisk(t, dir, Options{SnapshotEvery: 4})
	if err := d.Append(Record{Kind: RecClaim, Epoch: 1, Lo: 0, Hi: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := d.Append(Record{Kind: RecPut, Epoch: 1, Key: keyspace.Key(i), Payload: "v"}); err != nil {
			t.Fatal(err)
		}
	}
	if s := d.Stats(); s.Snapshots != 2 {
		t.Fatalf("8 appends at SnapshotEvery=4 should snapshot twice, got %d", s.Snapshots)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := openTestDisk(t, dir, Options{})
	defer d2.Close()
	st, _ := d2.Load()
	if len(st.Items) != 7 {
		t.Fatalf("auto-snapshot recovery lost items: %v", st.Items)
	}
}

// TestDiskAppendBatch: a batch is journaled in order as one unit — all of it
// survives a crash right after the call returns, it counts as len(batch)
// records, an empty batch is a no-op, and however many thresholds it crosses
// the snapshot check runs once.
func TestDiskAppendBatch(t *testing.T) {
	dir := t.TempDir()
	d := openTestDisk(t, dir, Options{SnapshotEvery: 4})
	if err := d.AppendBatch(nil); err != nil {
		t.Fatal(err)
	}
	batch := []Record{{Kind: RecReplicaPut, Key: 1, Payload: "old"}}
	for i := 2; i <= 10; i++ {
		batch = append(batch, Record{Kind: RecReplicaPut, Key: keyspace.Key(i), Payload: "v"})
	}
	batch = append(batch, Record{Kind: RecReplicaPut, Key: 1, Payload: "new"}, Record{Kind: RecReplicaDelete, Key: 2})
	if err := d.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); s.Records != uint64(len(batch)) || s.Snapshots != 1 {
		t.Fatalf("after one %d-record batch at SnapshotEvery=4: %+v, want %d records and 1 snapshot", len(batch), s, len(batch))
	}
	// No Close: the process died here.
	d2 := openTestDisk(t, dir, Options{})
	defer d2.Close()
	st, _ := d2.Load()
	if len(st.Replicas) != 9 || st.Replicas[1] != "new" {
		t.Fatalf("batch recovery wrong (in-order replay of 12 records should leave 9 replicas, key 1 = new): %v", st.Replicas)
	}
	if _, ok := st.Replicas[2]; ok {
		t.Fatal("the batch's trailing delete was lost")
	}
}

// TestDiskTornTail: garbage after the last intact record (a crash mid-append)
// is dropped and physically truncated on reopen.
func TestDiskTornTail(t *testing.T) {
	dir := t.TempDir()
	d := openTestDisk(t, dir, Options{})
	if err := d.Append(Record{Kind: RecClaim, Epoch: 1, Lo: 0, Hi: 1000}); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(Record{Kind: RecPut, Epoch: 1, Key: 5, Payload: "kept"}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, "wal.log")
	intact, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// A torn append: a plausible header whose body never made it to disk.
	torn := appendRecord(nil, Record{Kind: RecPut, Epoch: 1, Key: 6, Payload: "lost"})
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2 := openTestDisk(t, dir, Options{})
	defer d2.Close()
	st, _ := d2.Load()
	if st.Items[5] != "kept" || len(st.Items) != 1 {
		t.Fatalf("torn-tail recovery wrong: %v", st.Items)
	}
	if data, _ := os.ReadFile(walPath); !bytes.Equal(data, intact) {
		t.Fatalf("torn tail must be truncated: got %d bytes, want %d", len(data), len(intact))
	}
}

// TestDiskCRCCorruption: a bit flip in a record's body stops replay at that
// record — it and everything after it are dropped.
func TestDiskCRCCorruption(t *testing.T) {
	dir := t.TempDir()
	d := openTestDisk(t, dir, Options{})
	if err := d.Append(Record{Kind: RecClaim, Epoch: 1, Lo: 0, Hi: 1000}); err != nil {
		t.Fatal(err)
	}
	first := appendRecord(nil, Record{Kind: RecClaim, Epoch: 1, Lo: 0, Hi: 1000})
	if err := d.Append(Record{Kind: RecPut, Epoch: 1, Key: 5, Payload: "corrupted"}); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(Record{Kind: RecPut, Epoch: 1, Key: 6, Payload: "after"}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(first)+walHeaderLen+10] ^= 0xFF // flip a byte inside record 2's body
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := openTestDisk(t, dir, Options{})
	defer d2.Close()
	st, _ := d2.Load()
	if !st.HasRange || len(st.Items) != 0 {
		t.Fatalf("replay must stop at the corrupt record, got %+v", st)
	}
	if s := d2.Stats(); s.Records != 1 {
		t.Fatalf("only the intact prefix should replay, got %d records", s.Records)
	}
}

// TestDiskBatchedSync: with a sync interval, appends are buffered but visible
// in the shadow state immediately, and Sync forces them to the file.
func TestDiskBatchedSync(t *testing.T) {
	dir := t.TempDir()
	d := openTestDisk(t, dir, Options{SyncInterval: time.Hour})
	defer d.Close()
	if err := d.Append(Record{Kind: RecClaim, Epoch: 1, Lo: 0, Hi: 1000}); err != nil {
		t.Fatal(err)
	}
	st, _ := d.Load()
	if !st.HasRange {
		t.Fatalf("shadow state must reflect buffered appends")
	}
	if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || fi.Size() != 0 {
		t.Fatalf("append should still be buffered, wal size=%v err=%v", fi, err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || fi.Size() == 0 {
		t.Fatalf("Sync must flush the batch, wal size=%v err=%v", fi, err)
	}
}

// TestDiskStager: chunks spill to a file, Join validates the committed count
// and returns the reassembled payload, and the spill file is removed.
func TestDiskStager(t *testing.T) {
	dir := t.TempDir()
	s := newDiskStager(dir)
	chunks := [][]byte{[]byte("alpha-"), []byte("beta-"), []byte("gamma")}
	for _, c := range chunks {
		if err := s.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	if s.Chunks() != 3 || s.Bytes() != int64(len("alpha-beta-gamma")) {
		t.Fatalf("staging counters wrong: chunks=%d bytes=%d", s.Chunks(), s.Bytes())
	}
	got, err := s.Join(3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "alpha-beta-gamma" {
		t.Fatalf("joined payload wrong: %q", got)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("Join must remove the spill file, left %d entries", len(ents))
	}

	// Chunk-count mismatch is the transport's stream-abort condition.
	s2 := newDiskStager(dir)
	if err := s2.Append([]byte("only")); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Join(2); !errors.Is(err, transport.ErrStreamAborted) {
		t.Fatalf("count mismatch must be ErrStreamAborted, got %v", err)
	}

	// Discard is idempotent and removes a half-staged file.
	s3 := newDiskStager(dir)
	if err := s3.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	s3.Discard()
	s3.Discard()
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("Discard must remove the spill file, left %d entries", len(ents))
	}

	// Zero-chunk transfers never touch disk.
	s4 := newDiskStager(dir)
	if out, err := s4.Join(0); err != nil || out != nil {
		t.Fatalf("zero-chunk join: out=%v err=%v", out, err)
	}
}

// TestMemoryBackend: the default backend drops appends, loads nothing, and
// stages in RAM under the cap.
func TestMemoryBackend(t *testing.T) {
	m := NewMemory()
	if err := m.Append(Record{Kind: RecClaim, Epoch: 1, Lo: 0, Hi: 10}); err != nil {
		t.Fatal(err)
	}
	st, err := m.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.HasRange {
		t.Fatalf("memory backend must recover nothing, got %+v", st)
	}
	if err := m.AppendBatch(make([]Record, 3)); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.Name != "memory" || s.Records != 4 {
		t.Fatalf("memory stats wrong: %+v", s)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskFactoryPerAddr: two addresses get disjoint directories; the same
// address reopens its own history.
func TestDiskFactoryPerAddr(t *testing.T) {
	f := DiskFactory{Dir: t.TempDir()}
	b1, err := f.Open("127.0.0.1:7001")
	if err != nil {
		t.Fatal(err)
	}
	if err := b1.Append(Record{Kind: RecClaim, Epoch: 9, Lo: 0, Hi: 77}); err != nil {
		t.Fatal(err)
	}
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := f.Open("127.0.0.1:7002")
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if st, _ := b2.Load(); st.HasRange {
		t.Fatalf("other address must start empty, got %+v", st)
	}
	b1again, err := f.Open("127.0.0.1:7001")
	if err != nil {
		t.Fatal(err)
	}
	defer b1again.Close()
	if st, _ := b1again.Load(); !st.HasRange || st.Epoch != 9 {
		t.Fatalf("same address must reopen its history, got %+v", st)
	}
}

// BenchmarkWALAppend measures the hot append path. The fsync-batched variant
// is the configuration the recovery smoke and production-style runs use; the
// fsync-every-append variant is the full-durability floor.
func BenchmarkWALAppend(b *testing.B) {
	rec := Record{Kind: RecPut, Epoch: 1, Key: 42, Payload: strings.Repeat("x", 256)}
	b.Run("batched", func(b *testing.B) {
		d, err := OpenDisk(b.TempDir(), Options{SyncInterval: 100 * time.Millisecond, SnapshotEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close()
		if err := d.Append(Record{Kind: RecClaim, Epoch: 1, Lo: 0, Hi: 1 << 30}); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(walHeaderLen + 1 + 8*4 + 4 + len(rec.Payload) + 4))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := d.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fsync-every", func(b *testing.B) {
		if testing.Short() {
			b.Skip("fsync-per-append benchmark skipped in -short mode")
		}
		d, err := OpenDisk(b.TempDir(), Options{SnapshotEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close()
		if err := d.Append(Record{Kind: RecClaim, Epoch: 1, Lo: 0, Hi: 1 << 30}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := d.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
	// One push's worth of replica records as one AppendBatch: one fsync for
	// the batch, against one per record on the fsync-every path above.
	b.Run("fsync-every-batch64", func(b *testing.B) {
		if testing.Short() {
			b.Skip("fsync-per-batch benchmark skipped in -short mode")
		}
		d, err := OpenDisk(b.TempDir(), Options{SnapshotEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close()
		batch := make([]Record, 64)
		for i := range batch {
			batch[i] = Record{Kind: RecReplicaPut, Key: keyspace.Key(i), Payload: rec.Payload}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := d.AppendBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/record")
	})
	b.Run("memory", func(b *testing.B) {
		m := NewMemory()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
