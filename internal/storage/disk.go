package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/keyspace"
	"repro/internal/transport"
)

// Disk file layout inside one peer's directory:
//
//	wal.log       append-only write-ahead log (see wal.go for framing)
//	snapshot.pep  last full-state snapshot (magic + CRC + gob)
//	stage/        spill files for in-flight chunked stream transfers
//
// Snapshot/truncate protocol: the shadow state (maintained record by record
// by the same apply function recovery uses) is written to snapshot.tmp,
// fsynced, renamed over snapshot.pep, and only then is the WAL truncated to
// empty — a crash between any two steps recovers either the old snapshot
// plus the full log or the new snapshot plus a (possibly empty) log suffix,
// never a torn combination.

// snapMagic identifies a snapshot file and its format version.
const snapMagic = "PEPSNAP1"

// Options tunes a Disk backend.
type Options struct {
	// SyncInterval batches WAL fsyncs: appends are buffered and flushed to
	// stable storage at most this often by a background flusher. Zero means
	// fsync on every append (full durability, the recovery smoke's setting);
	// a positive interval bounds the data a crash can lose to that window.
	SyncInterval time.Duration
	// SnapshotEvery writes a snapshot and truncates the WAL after this many
	// appended records (default 8192, <0 disables automatic snapshots).
	SnapshotEvery int
}

func (o Options) withDefaults() Options {
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 8192
	}
	return o
}

// Disk is the durable backend: WAL + snapshots + disk-staged streams.
type Disk struct {
	dir  string
	opts Options

	mu        sync.Mutex
	wal       *os.File
	pending   []byte // encoded records not yet written+fsynced
	state     State  // shadow state: snapshot ∘ log ∘ pending
	walBytes  int64
	sinceSnap int    // records appended since the last snapshot
	records   uint64 // total records appended since open
	snapshots uint64
	closed    bool

	stopCh  chan struct{}
	flushWG sync.WaitGroup
}

// OpenDisk opens (creating if needed) the peer directory at dir, recovers
// the snapshot and write-ahead log, truncates any torn WAL tail, and returns
// the backend ready for appends.
func OpenDisk(dir string, opts Options) (*Disk, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(filepath.Join(dir, "stage"), 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating %s: %w", dir, err)
	}
	d := &Disk{dir: dir, opts: opts, state: newState(), stopCh: make(chan struct{})}

	if err := d.loadSnapshot(); err != nil {
		return nil, err
	}
	walPath := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("storage: reading WAL: %w", err)
	}
	valid, recs := replayWAL(data, &d.state)
	d.records = recs
	d.walBytes = valid
	if int64(len(data)) > valid {
		// Torn tail from a crash mid-append: drop it so new records are not
		// appended after garbage.
		if err := os.Truncate(walPath, valid); err != nil {
			return nil, fmt.Errorf("storage: truncating torn WAL tail: %w", err)
		}
	}
	d.wal, err = os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: opening WAL: %w", err)
	}
	// Orphaned spill files from a previous incarnation's in-flight transfers
	// are dead weight: the transfers they staged never committed.
	if ents, err := os.ReadDir(filepath.Join(dir, "stage")); err == nil {
		for _, e := range ents {
			os.Remove(filepath.Join(dir, "stage", e.Name()))
		}
	}
	if opts.SyncInterval > 0 {
		d.flushWG.Add(1)
		go d.flushLoop()
	}
	return d, nil
}

func (d *Disk) flushLoop() {
	defer d.flushWG.Done()
	t := time.NewTicker(d.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			d.mu.Lock()
			if !d.closed {
				d.flushLocked()
			}
			d.mu.Unlock()
		case <-d.stopCh:
			return
		}
	}
}

// Append encodes the record, applies it to the shadow state, and either
// fsyncs immediately (SyncInterval zero) or leaves it for the flusher.
func (d *Disk) Append(rec Record) error {
	return d.AppendBatch([]Record{rec})
}

// AppendBatch journals recs as one unit of durability: all records are
// encoded and applied in order, then flushed with a single write+fsync
// (SyncInterval zero) and a single snapshot-threshold check.
func (d *Disk) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("storage: append on closed backend")
	}
	for _, rec := range recs {
		d.pending = appendRecord(d.pending, rec)
		d.state.apply(rec)
	}
	d.records += uint64(len(recs))
	d.sinceSnap += len(recs)
	if d.opts.SyncInterval <= 0 {
		if err := d.flushLocked(); err != nil {
			return err
		}
	}
	if d.opts.SnapshotEvery > 0 && d.sinceSnap >= d.opts.SnapshotEvery {
		return d.snapshotLocked()
	}
	return nil
}

// flushLocked writes and fsyncs the pending batch. Callers hold d.mu.
func (d *Disk) flushLocked() error {
	if len(d.pending) == 0 {
		return nil
	}
	n, err := d.wal.Write(d.pending)
	d.walBytes += int64(n)
	if err != nil {
		return fmt.Errorf("storage: WAL write: %w", err)
	}
	d.pending = d.pending[:0]
	if err := d.wal.Sync(); err != nil {
		return fmt.Errorf("storage: WAL fsync: %w", err)
	}
	return nil
}

// Sync forces every appended record to stable storage.
func (d *Disk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	return d.flushLocked()
}

// Load returns a deep copy of the recovered (and since maintained) state.
func (d *Disk) Load() (State, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state.clone(), nil
}

// NewStager spills this transfer's chunks to a file under stage/; maxBytes
// is ignored (disk staging is what lifts the RAM cap).
func (d *Disk) NewStager(maxBytes int64) transport.ChunkStager {
	return newDiskStager(filepath.Join(d.dir, "stage"))
}

// Stats reports the disk backend's counters.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{Name: "disk", Records: d.records, Snapshots: d.snapshots, WALBytes: d.walBytes + int64(len(d.pending))}
}

// Snapshot writes the current shadow state and truncates the WAL.
func (d *Disk) Snapshot() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("storage: snapshot on closed backend")
	}
	return d.snapshotLocked()
}

func (d *Disk) snapshotLocked() error {
	// The pending batch is part of the state being snapshotted; make the log
	// consistent with it first so a failed snapshot leaves full recovery.
	if err := d.flushLocked(); err != nil {
		return err
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(d.state); err != nil {
		return fmt.Errorf("storage: encoding snapshot: %w", err)
	}
	var head [len(snapMagic) + 8]byte
	copy(head[:], snapMagic)
	binary.LittleEndian.PutUint32(head[len(snapMagic):], uint32(body.Len()))
	binary.LittleEndian.PutUint32(head[len(snapMagic)+4:], crc32.Checksum(body.Bytes(), walCRC))
	tmp := filepath.Join(d.dir, "snapshot.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: creating snapshot: %w", err)
	}
	if _, err := f.Write(head[:]); err == nil {
		_, err = f.Write(body.Bytes())
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("storage: writing snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, "snapshot.pep")); err != nil {
		return fmt.Errorf("storage: installing snapshot: %w", err)
	}
	// The snapshot now carries everything the log described: truncate it.
	if err := d.wal.Truncate(0); err != nil {
		return fmt.Errorf("storage: truncating WAL after snapshot: %w", err)
	}
	if _, err := d.wal.Seek(0, 0); err != nil {
		return fmt.Errorf("storage: rewinding WAL after snapshot: %w", err)
	}
	d.walBytes = 0
	d.sinceSnap = 0
	d.snapshots++
	return nil
}

func (d *Disk) loadSnapshot() error {
	data, err := os.ReadFile(filepath.Join(d.dir, "snapshot.pep"))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("storage: reading snapshot: %w", err)
	}
	if len(data) < len(snapMagic)+8 || string(data[:len(snapMagic)]) != snapMagic {
		return fmt.Errorf("storage: snapshot file is not a %s snapshot", snapMagic)
	}
	bodyLen := int(binary.LittleEndian.Uint32(data[len(snapMagic):]))
	crc := binary.LittleEndian.Uint32(data[len(snapMagic)+4:])
	body := data[len(snapMagic)+8:]
	if bodyLen != len(body) || crc32.Checksum(body, walCRC) != crc {
		return fmt.Errorf("storage: snapshot is corrupt (length or CRC mismatch)")
	}
	st := newState()
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&st); err != nil {
		return fmt.Errorf("storage: decoding snapshot: %w", err)
	}
	if st.Items == nil {
		st.Items = make(map[keyspace.Key]string)
	}
	if st.Replicas == nil {
		st.Replicas = make(map[keyspace.Key]string)
	}
	d.state = st
	return nil
}

// Close flushes pending records and releases the WAL file. Crash simulation
// in tests skips Close entirely.
func (d *Disk) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	err := d.flushLocked()
	cerr := d.wal.Close()
	d.mu.Unlock()
	close(d.stopCh)
	d.flushWG.Wait()
	if err != nil {
		return err
	}
	return cerr
}

// DiskFactory opens one durable backend per peer under Dir, in a
// subdirectory derived from the peer's address. A process that restarts
// listening on the same address therefore reopens its own history; a
// rejoined peer under a fresh identity starts an empty one.
type DiskFactory struct {
	Dir  string
	Opts Options
}

// Open opens (or creates) the backend directory for addr.
func (f DiskFactory) Open(addr transport.Addr) (Backend, error) {
	return OpenDisk(filepath.Join(f.Dir, sanitizeAddr(string(addr))), f.Opts)
}

// NewStager is a transport.StagerFactory spilling to a process-wide staging
// area under Dir. The transport needs its stager before any per-peer backend
// exists, so this hook lives on the factory: wiring it into the transport's
// config makes BOTH sides — inbound streamed requests and dial-side chunked
// responses — spill to disk, lifting the MaxStreamBytes RAM ceiling
// everywhere at once (maxBytes is ignored by design).
func (f DiskFactory) NewStager(maxBytes int64) transport.ChunkStager {
	dir := filepath.Join(f.Dir, "stage")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		// Fall back to RAM staging under the cap rather than poisoning every
		// transfer: a missing spill directory degrades capacity, not safety.
		return transport.NewMemStager(maxBytes)
	}
	return newDiskStager(dir)
}

// sanitizeAddr maps an address to a filesystem-safe directory name.
func sanitizeAddr(addr string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '-':
			return r
		default:
			return '_'
		}
	}, addr)
}
