package guide

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"parcost/internal/dataset"
	"parcost/internal/ml"
)

// Advisor artifacts bundle everything query time needs — the fitted model's
// artifact, the candidate grid, and the machine the training data came from
// — so `parcost train` can fit once and `parcost stq/bq/serve` answer
// queries without the dataset or a refit.
const (
	AdvisorArtifactFormat  = "parcost-advisor"
	AdvisorArtifactVersion = 1
)

// envelope is the on-disk wrapper of both guide artifact generations, an
// advisor artifact and a fleet bundle. The checksum covers the whole payload
// — for an advisor the machine, grid, AND nested model artifact — so
// corruption anywhere in the file is rejected at load, not just inside the
// model state (a flipped digit in the grid would otherwise silently change
// every recommendation).
type envelope struct {
	Format   string          `json:"format"`
	Version  int             `json:"version"`
	Checksum string          `json:"checksum"` // sha256 hex of the payload bytes
	Payload  json.RawMessage `json:"payload"`
}

// envelopeKind names one envelope generation: its format tag, the version
// this reader handles, and the words its errors use ("advisor artifact",
// "fleet bundle").
type envelopeKind struct {
	format        string
	version       int
	subject, noun string
}

var (
	advisorEnvelope = envelopeKind{AdvisorArtifactFormat, AdvisorArtifactVersion, "advisor", "artifact"}
	bundleEnvelope  = envelopeKind{FleetBundleFormat, FleetBundleVersion, "fleet", "bundle"}
)

// seal marshals payload and wraps it in a checksummed envelope.
func (k envelopeKind) seal(payload any) ([]byte, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	return json.Marshal(envelope{
		Format:   k.format,
		Version:  k.version,
		Checksum: hex.EncodeToString(sum[:]),
		Payload:  raw,
	})
}

// decode unmarshals data as an envelope of this kind and opens it.
func (k envelopeKind) decode(data []byte, dst any) error {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("guide: malformed %s %s: %w", k.subject, k.noun, err)
	}
	return k.open(&env, dst)
}

// open checks an envelope's format, version and checksum, then unmarshals
// its payload into dst.
func (k envelopeKind) open(env *envelope, dst any) error {
	if env.Format != k.format {
		return fmt.Errorf("guide: %s format %q, want %q", k.noun, env.Format, k.format)
	}
	if env.Version != k.version {
		return fmt.Errorf("guide: %s %s version %d not supported (reader handles %d)",
			k.subject, k.noun, env.Version, k.version)
	}
	sum := sha256.Sum256(env.Payload)
	if got := hex.EncodeToString(sum[:]); got != env.Checksum {
		return fmt.Errorf("guide: %s %s checksum mismatch (corrupt %s?)", k.subject, k.noun, k.noun)
	}
	if err := json.Unmarshal(env.Payload, dst); err != nil {
		return fmt.Errorf("guide: malformed %s payload: %w", k.subject, err)
	}
	return nil
}

// advisorPayload is the checksummed content. Model holds a complete ml
// model artifact (its own format/version/checksum envelope).
type advisorPayload struct {
	Machine string          `json:"machine"`
	Grid    dataset.Grid    `json:"grid"`
	Model   json.RawMessage `json:"model"`
}

// EncodeAdvisor captures a fitted advisor and its provenance machine name
// into artifact bytes. The advisor's model must support snapshots.
func EncodeAdvisor(adv *Advisor, machineName string) ([]byte, error) {
	if adv == nil || adv.Model == nil {
		return nil, fmt.Errorf("guide: EncodeAdvisor requires a fitted advisor")
	}
	model, err := ml.EncodeModel(adv.Model)
	if err != nil {
		return nil, fmt.Errorf("guide: encoding advisor model: %w", err)
	}
	return advisorEnvelope.seal(advisorPayload{Machine: machineName, Grid: adv.Grid, Model: model})
}

// DecodeAdvisor validates an advisor artifact (format, version, payload
// checksum) and rebuilds the advisor, returning the machine name recorded
// at training time.
func DecodeAdvisor(data []byte) (*Advisor, string, error) {
	var payload advisorPayload
	if err := advisorEnvelope.decode(data, &payload); err != nil {
		return nil, "", err
	}
	return payload.advisor()
}

// advisor rebuilds the advisor an opened payload describes.
func (payload *advisorPayload) advisor() (*Advisor, string, error) {
	if len(payload.Grid.Nodes) == 0 || len(payload.Grid.TileSizes) == 0 {
		return nil, "", fmt.Errorf("guide: advisor artifact has an empty candidate grid")
	}
	model, err := ml.DecodeModel(payload.Model)
	if err != nil {
		return nil, "", fmt.Errorf("guide: decoding advisor model: %w", err)
	}
	return &Advisor{Model: model, Grid: payload.Grid}, payload.Machine, nil
}

// SaveAdvisor writes a fitted advisor's artifact to a file.
func SaveAdvisor(path string, adv *Advisor, machineName string) error {
	data, err := EncodeAdvisor(adv, machineName)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadAdvisor reads an advisor artifact from a file.
func LoadAdvisor(path string) (*Advisor, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	return DecodeAdvisor(data)
}
