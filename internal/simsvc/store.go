package simsvc

import (
	"encoding/json"
	"fmt"
	"path/filepath"

	"ladm/internal/simstore"
	"ladm/internal/simtel"
	"ladm/internal/stats"
)

// TelemetrySchema is the key schema of spilled telemetry records. It is
// separate from KeySchema because the payloads version independently: a
// telemetry shape change must not invalidate cached run records, and
// vice versa.
const TelemetrySchema = "simsvc-telemetry/v1"

// TelemetryRecord is the durable form of one telemetry job's full
// observability output: the provenance summary, the sampled series, and
// the complete Chrome trace event list (spans plus counter tracks), so a
// record read back after eviction or restart renders byte-identically to
// the live collector.
type TelemetryRecord struct {
	Summary *stats.Telemetry `json:"summary"`
	Series  *simtel.Series   `json:"series"`
	Events  []simtel.Event   `json:"events"`
}

// DiskStore adapts the generic byte-envelope store of internal/simstore
// to the Cache's RunStore interface: records are stats.Run JSON payloads
// keyed by JobKey hex. Payloads that pass the envelope's CRC but fail to
// decode as a Run (a schema drift the envelope cannot see) are
// quarantined exactly like checksum failures — the caller only ever
// observes a miss.
type DiskStore struct {
	Store *simstore.Store
	// Tel is the sibling store for spilled telemetry records (nil when
	// its directory could not be opened; telemetry then lives and dies
	// with the job registry, exactly as before the spill existed).
	Tel *simstore.Store
	// Tool names the producing binary in each envelope's provenance.
	Tool string
}

// TelemetryDir returns the telemetry store's directory under a result
// store root.
func TelemetryDir(dir string) string { return filepath.Join(dir, "telemetry") }

// NewDiskStore opens a simstore under dir for this service's key schema,
// plus a telemetry store under dir/telemetry. A telemetry-store failure
// degrades to running without the spill — run records are the product,
// telemetry is diagnostics.
func NewDiskStore(dir string, maxBytes int64, tool string, logf func(string, ...any)) (*DiskStore, error) {
	st, err := simstore.Open(simstore.Options{
		Dir:      dir,
		MaxBytes: maxBytes,
		Schema:   KeySchema,
		Logf:     logf,
	})
	if err != nil {
		return nil, err
	}
	tel, err := simstore.Open(simstore.Options{
		Dir:      TelemetryDir(dir),
		MaxBytes: maxBytes,
		Schema:   TelemetrySchema,
		Logf:     logf,
	})
	if err != nil {
		if logf != nil {
			logf("simsvc: telemetry store unavailable, running without spill: %v", err)
		}
		tel = nil
	}
	return &DiskStore{Store: st, Tel: tel, Tool: tool}, nil
}

// Rescan picks up records written to the shared store directory by
// other processes since open (or the previous rescan), returning how
// many were found. The cache layer calls it on a store miss before
// paying for a recompute, so two ladmbench campaigns (or a campaign and
// a server) sharing -store-dir serve each other's finished cells.
func (d *DiskStore) Rescan() int {
	n := d.Store.Rescan()
	if d.Tel != nil {
		d.Tel.Rescan()
	}
	return n
}

// GetRun returns the record persisted under key, if a valid one exists.
func (d *DiskStore) GetRun(key JobKey) (*stats.Run, bool) {
	payload, ok := d.Store.Get(key.String())
	if !ok {
		return nil, false
	}
	run := new(stats.Run)
	if err := json.Unmarshal(payload, run); err != nil {
		d.Store.Quarantine(key.String(), fmt.Errorf("payload is not a stats.Run: %w", err))
		return nil, false
	}
	return run, true
}

// PutRun persists a completed record via the store's write-behind queue;
// Close flushes anything still queued. The run's fidelity-tier tags are
// mirrored into the envelope's provenance, so inspecting a store never
// leaves it ambiguous whether the closed-form model or the event engine
// produced a record.
func (d *DiskStore) PutRun(key JobKey, run *stats.Run) {
	payload, err := json.Marshal(run)
	if err != nil {
		return
	}
	prov := stats.NewProvenance(d.Tool)
	prov.Tier, prov.Confidence = run.Tier, run.Confidence
	d.Store.PutAsync(key.String(), payload, prov)
}

// PutTelemetry persists a telemetry record via the telemetry store's
// write-behind queue. Returns false when there is no telemetry store or
// the record does not serialize.
func (d *DiskStore) PutTelemetry(key JobKey, rec *TelemetryRecord) bool {
	if d.Tel == nil || rec == nil {
		return false
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return false
	}
	d.Tel.PutAsync(key.String(), payload, stats.NewProvenance(d.Tool))
	return true
}

// GetTelemetry returns the telemetry record spilled under key.
// quarantined=true reports that a record existed but failed validation
// just now (the caller's cue to answer 410 Gone rather than 404): the
// envelope layer quarantines checksum failures, and payloads that pass
// the CRC but no longer decode as a TelemetryRecord are quarantined
// here for the same reason.
func (d *DiskStore) GetTelemetry(key JobKey) (rec *TelemetryRecord, ok, quarantined bool) {
	if d.Tel == nil {
		return nil, false, false
	}
	k := key.String()
	existed := d.Tel.Contains(k)
	payload, got := d.Tel.Get(k)
	if !got {
		return nil, false, existed
	}
	rec = new(TelemetryRecord)
	if err := json.Unmarshal(payload, rec); err != nil {
		d.Tel.Quarantine(k, fmt.Errorf("payload is not a TelemetryRecord: %w", err))
		return nil, false, true
	}
	return rec, true, false
}

// Close flushes pending write-backs and releases both stores.
func (d *DiskStore) Close() {
	d.Store.Close()
	if d.Tel != nil {
		d.Tel.Close()
	}
}
