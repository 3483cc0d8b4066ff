package retrain

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"parcost/internal/dataset"
)

// The journal is the controller's crash-safety spine: every state transition
// — observation ingested, cycle tripped, measurements chosen, each
// measurement's outcome, candidate fitted, gate verdict, promotion, rollback
// — is appended and fsynced BEFORE the transition takes effect, so a `kill
// -9` at any instant loses at most the record being written. It follows the
// fleet bundle's envelope discipline at record granularity: a versioned header
// line, then one JSON record per line, each carrying a sha256 checksum of
// its payload and a strictly increasing sequence number.
//
// Replay validates every line. A torn or half-written LAST record is the
// signature of a crash mid-append: it is truncated away and replay succeeds
// from the last intact record (measurements already journaled are never
// re-run — that is the "zero duplicate measurements" guarantee). Corruption
// anywhere else (bad checksum or a sequence gap with valid records after
// it) is not a crash artifact and is rejected, matching how a corrupt
// artifact refuses to load rather than serving altered state.
const (
	journalFormat  = "parcost-retrain-journal"
	journalVersion = 1
)

// Record kinds, in lifecycle order.
const (
	recObserve       = "observe"
	recTrip          = "trip"
	recAcquire       = "acquire"
	recMeasured      = "measured"
	recMeasureFailed = "measure_failed"
	recFitted        = "fitted"
	recGate          = "gate"
	recPromoted      = "promoted"
	recRolledBack    = "rolled_back"
	recCycleDone     = "cycle_done"
)

// Cycle outcomes recorded in cycleDonePayload.
const (
	outcomePromoted  = "promoted"
	outcomeDiscarded = "discarded"
	outcomeAborted   = "aborted"
)

type journalHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Machine string `json:"machine"`
}

type journalRecord struct {
	Seq      uint64          `json:"seq"`
	Kind     string          `json:"kind"`
	At       string          `json:"at,omitempty"` // RFC3339, from the injected clock
	Checksum string          `json:"checksum"`     // sha256 hex of Payload bytes
	Payload  json.RawMessage `json:"payload"`
}

type observePayload struct {
	Config    dataset.Config `json:"config"`
	Seconds   float64        `json:"seconds"`
	Predicted float64        `json:"predicted"` // serving model's prediction at ingest time
}

type tripPayload struct {
	Cycle     uint64  `json:"cycle"`
	WindowErr float64 `json:"window_err"` // windowed mean relative error at trip
}

type acquirePayload struct {
	Cycle    uint64           `json:"cycle"`
	Strategy string           `json:"strategy"`
	Degraded bool             `json:"degraded"` // prior cycle exhausted its failure budget
	Configs  []dataset.Config `json:"configs"`
}

type measuredPayload struct {
	Cycle   uint64         `json:"cycle"`
	Config  dataset.Config `json:"config"`
	Seconds float64        `json:"seconds"`
}

type measureFailedPayload struct {
	Cycle    uint64         `json:"cycle"`
	Config   dataset.Config `json:"config"`
	Attempts int            `json:"attempts"`
	Error    string         `json:"error"`
}

type fittedPayload struct {
	Cycle     uint64 `json:"cycle"`
	Candidate string `json:"candidate"` // lineage id: sha256 of the candidate's artifact bytes
	Parent    string `json:"parent"`    // lineage id of the advisor it would replace ("base" for the bundle's)
	TrainRows int    `json:"train_rows"`
}

type gatePayload struct {
	Cycle         uint64  `json:"cycle"`
	Candidate     string  `json:"candidate"`
	Pass          bool    `json:"pass"`
	CandidateRMSE float64 `json:"candidate_rmse"`
	IncumbentRMSE float64 `json:"incumbent_rmse"`
	Margin        float64 `json:"margin"`
	Reason        string  `json:"reason,omitempty"` // set when failing for a non-score reason
}

type promotedPayload struct {
	Cycle       uint64  `json:"cycle"`
	Candidate   string  `json:"candidate"`
	Path        string  `json:"path"` // artifact file the promotion persisted
	Warmed      int     `json:"warmed"`
	PreSweepMs  float64 `json:"pre_sweep_mean_ms"` // outgoing shard's mean sweep time (latency-shift baseline)
	PreSweepCnt uint64  `json:"pre_sweep_count"`
}

type rolledBackPayload struct {
	Cycle  uint64 `json:"cycle"`
	Reason string `json:"reason"`
}

type cycleDonePayload struct {
	Cycle   uint64 `json:"cycle"`
	Outcome string `json:"outcome"`
}

// journal is the append side. Appends are serialized by the Controller's
// mutex; every append is flushed and fsynced before it returns.
type journal struct {
	f   *os.File
	seq uint64
}

// openJournal opens (creating if needed) a machine's journal, replays its
// records, truncates a torn tail, and returns the intact records for state
// rebuild. The file is left positioned for appending.
func openJournal(path, machine string) (*journal, []journalRecord, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("retrain: journal %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, nil, errors.Join(err, f.Close())
	}
	j := &journal{f: f}
	if st.Size() == 0 {
		// Fresh journal: write the header line.
		head, err := json.Marshal(journalHeader{Format: journalFormat, Version: journalVersion, Machine: machine})
		if err != nil {
			return nil, nil, errors.Join(err, f.Close())
		}
		if err := j.writeLine(head); err != nil {
			return nil, nil, errors.Join(err, f.Close())
		}
		return j, nil, nil
	}
	records, keep, err := replayJournal(f, machine)
	if err != nil {
		return nil, nil, errors.Join(fmt.Errorf("retrain: journal %s: %w", path, err), f.Close())
	}
	// Drop the torn tail (if any) and position for append.
	if err := f.Truncate(keep); err != nil {
		return nil, nil, errors.Join(err, f.Close())
	}
	if _, err := f.Seek(keep, io.SeekStart); err != nil {
		return nil, nil, errors.Join(err, f.Close())
	}
	if n := len(records); n > 0 {
		j.seq = records[n-1].Seq
	}
	return j, records, nil
}

// replayJournal validates the header and every record line, returning the
// intact records and the byte offset up to which the file is valid. Only the
// FINAL line may be invalid (torn append mid-crash); an invalid line with
// valid lines after it is corruption and errors.
func replayJournal(f *os.File, machine string) ([]journalRecord, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)

	if !sc.Scan() {
		return nil, 0, fmt.Errorf("journal has no header line")
	}
	headLine := sc.Bytes()
	var head journalHeader
	if err := json.Unmarshal(headLine, &head); err != nil {
		return nil, 0, fmt.Errorf("malformed journal header: %w", err)
	}
	if head.Format != journalFormat {
		return nil, 0, fmt.Errorf("journal format %q, want %q", head.Format, journalFormat)
	}
	if head.Version != journalVersion {
		return nil, 0, fmt.Errorf("journal version %d not supported (reader handles %d)", head.Version, journalVersion)
	}
	if head.Machine != machine {
		return nil, 0, fmt.Errorf("journal belongs to machine %q, controller serves %q", head.Machine, machine)
	}
	offset := int64(len(headLine)) + 1 // +1 for the newline

	var records []journalRecord
	keep := offset
	var torn string // description of the first invalid line
	for sc.Scan() {
		line := sc.Bytes()
		lineLen := int64(len(line)) + 1
		if torn != "" {
			// A valid-looking line AFTER an invalid one means mid-file
			// corruption, not a crash tail.
			return nil, 0, fmt.Errorf("record %d: %s (followed by %d more bytes — corrupt journal, not a torn tail)",
				len(records)+1, torn, lineLen)
		}
		rec, err := decodeRecord(line, uint64(len(records))+1)
		if err != nil {
			torn = err.Error()
			offset += lineLen
			continue
		}
		records = append(records, rec)
		offset += lineLen
		keep = offset
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return records, keep, nil
}

// decodeRecord parses and validates one journal line against its expected
// sequence number.
func decodeRecord(line []byte, wantSeq uint64) (journalRecord, error) {
	var rec journalRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return rec, fmt.Errorf("malformed record: %v", err)
	}
	if rec.Seq != wantSeq {
		return rec, fmt.Errorf("sequence %d, want %d", rec.Seq, wantSeq)
	}
	sum := sha256.Sum256(rec.Payload)
	if got := hex.EncodeToString(sum[:]); got != rec.Checksum {
		return rec, fmt.Errorf("record %d checksum mismatch", rec.Seq)
	}
	return rec, nil
}

// append journals one state transition, fsyncing before return so the
// transition is durable when the caller proceeds.
func (j *journal) append(kind, at string, payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(raw)
	j.seq++
	line, err := json.Marshal(journalRecord{
		Seq: j.seq, Kind: kind, At: at,
		Checksum: hex.EncodeToString(sum[:]), Payload: raw,
	})
	if err != nil {
		j.seq--
		return err
	}
	if err := j.writeLine(line); err != nil {
		j.seq--
		return err
	}
	return nil
}

func (j *journal) writeLine(line []byte) error {
	var buf bytes.Buffer
	buf.Grow(len(line) + 1)
	buf.Write(line)
	buf.WriteByte('\n')
	if _, err := j.f.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("retrain: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("retrain: journal sync: %w", err)
	}
	return nil
}

func (j *journal) Close() error { return j.f.Close() }

// decodePayload unmarshals a record's payload into dst, failing loudly: a
// checksum-valid record whose payload does not parse means a writer bug,
// not corruption.
func decodePayload(rec journalRecord, dst any) error {
	if err := json.Unmarshal(rec.Payload, dst); err != nil {
		return fmt.Errorf("retrain: journal record %d (%s): %w", rec.Seq, rec.Kind, err)
	}
	return nil
}

// writeFileDurable replaces path with data so that a crash leaves either
// the old file or the complete new one: write a temp file in the same
// directory, fsync it, rename it over path, then fsync the directory so the
// rename itself is on disk.
func writeFileDurable(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = f.Chmod(0o644)
	if err == nil {
		_, err = f.Write(data)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
