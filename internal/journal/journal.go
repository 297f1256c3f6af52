// Package journal is the durability subsystem: an append-only,
// fsync'd write-ahead log of knowledge mutations (learner-corpus
// records, user-profile events, FAQ pairs and ontology teach/author
// operations), replayed over the last checkpoint at boot, plus a
// background checkpointer that snapshots the four stores into their
// checkpoint files and truncates the log.
//
// The paper's premise is an agent that stays online and keeps learning
// from dialogue; before this package every learned fact lived only in
// memory until a graceful shutdown. With the journal attached, a crash,
// OOM-kill or power loss loses at most the mutations after the last
// fsync'd journal record, and a checkpointed mutation is never applied
// twice (see DESIGN.md D9 for the recovery invariant).
//
// Layout inside the data directory:
//
//	journal.00000001.wal    sealed/active log segments, JSONL records
//	ontology.xml            checkpoint files (checkpoint.go), each
//	corpus.jsonl            embedding the WAL position it covers
//	profiles.json
//	faq.jsonl
//
// Each log record is one line:
//
//	{"lsn":17,"type":"corpus.add","crc":2843420195,"data":{...}}
//
// lsn is a monotonically increasing sequence number shared by all four
// stores; crc is the IEEE CRC-32 of the data bytes. Recovery stops at
// the first torn or corrupt line (a crash mid-append), truncates the
// tail, and resumes appending from there.
package journal

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
)

// Record types routed to the four stores.
const (
	TypeCorpusAdd    = "corpus.add"
	TypeProfileEvent = "profile.event"
	TypeFAQRecord    = "faq.record"
	TypeOntologyOp   = "ontology.op"
)

// Record is one journaled mutation.
type Record struct {
	LSN  uint64          `json:"lsn"`
	Type string          `json:"type"`
	CRC  uint32          `json:"crc"`
	Data json.RawMessage `json:"data"`
}

// encodeRecord renders a record as one JSONL line (newline included).
func encodeRecord(lsn uint64, typ string, payload interface{}) ([]byte, error) {
	data, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("journal: encode %s payload: %w", typ, err)
	}
	rec := Record{LSN: lsn, Type: typ, CRC: crc32.ChecksumIEEE(data), Data: data}
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: encode %s record: %w", typ, err)
	}
	return append(line, '\n'), nil
}

// decodeRecord parses one line; ok=false means the line is torn or
// corrupt (invalid JSON, missing fields, or CRC mismatch) and replay
// must stop there.
func decodeRecord(line []byte) (Record, bool) {
	var rec Record
	if err := json.Unmarshal(line, &rec); err != nil {
		return Record{}, false
	}
	if rec.LSN == 0 || rec.Type == "" || rec.Data == nil {
		return Record{}, false
	}
	if crc32.ChecksumIEEE(rec.Data) != rec.CRC {
		return Record{}, false
	}
	return rec, true
}
