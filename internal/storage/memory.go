package storage

import (
	"sync/atomic"

	"repro/internal/transport"
)

// Memory is the default backend: the pre-existing in-process behavior with
// no durability. Appends are counted and dropped and Load recovers nothing.
// It exists so every protocol layer can journal unconditionally — the simnet
// clusters and unit tests pay one atomic increment per mutation, nothing
// more.
type Memory struct {
	records atomic.Uint64
}

// NewMemory returns a fresh in-memory backend.
func NewMemory() *Memory { return &Memory{} }

// Append counts and drops the record.
func (m *Memory) Append(Record) error {
	m.records.Add(1)
	return nil
}

// AppendBatch counts and drops the records.
func (m *Memory) AppendBatch(recs []Record) error {
	m.records.Add(uint64(len(recs)))
	return nil
}

// Sync is a no-op.
func (m *Memory) Sync() error { return nil }

// Load recovers nothing: a memory-backed peer that restarts is a new peer.
func (m *Memory) Load() (State, error) { return newState(), nil }

// Stats reports the append counter.
func (m *Memory) Stats() Stats {
	return Stats{Name: "memory", Records: m.records.Load()}
}

// Close is a no-op.
func (m *Memory) Close() error { return nil }

// MemoryFactory opens a fresh Memory backend per peer.
type MemoryFactory struct{}

// Open returns a new Memory backend.
func (MemoryFactory) Open(transport.Addr) (Backend, error) { return NewMemory(), nil }
