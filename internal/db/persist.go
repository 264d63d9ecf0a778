package db

import (
	"encoding/gob"
	"fmt"
	"io"

	"cachemind/internal/trace"
	"cachemind/internal/workload"
)

// frameDTO is the gob wire form of a frame: whole records, the format
// persistVersion 1 has always had, so existing store files load and
// Save stays byte-identical whatever the in-memory layout. Symbol
// tables are not serialized; they are reattached from the workload
// registry on load.
type frameDTO struct {
	Workload    string
	Policy      string
	Records     []trace.Record
	Summary     FrameSummary
	Description string
}

type storeDTO struct {
	Version int
	Frames  []frameDTO
}

// persistVersion guards the wire format.
const persistVersion = 1

// Save writes the store to w in gob format, reassembling every frame's
// records for the encoder.
func (s *Store) Save(w io.Writer) error {
	dto := storeDTO{Version: persistVersion}
	for _, key := range s.Keys() {
		f := s.frames[key]
		dto.Frames = append(dto.Frames, frameDTO{
			Workload:    f.Workload,
			Policy:      f.Policy,
			Records:     f.records(),
			Summary:     f.Summary,
			Description: f.Description,
		})
	}
	return gob.NewEncoder(w).Encode(dto)
}

// Load reads a store previously written by Save. Each frame's workload
// must be registered in the workload registry so its symbol table can
// be reattached.
func Load(r io.Reader) (*Store, error) {
	var dto storeDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("db: decoding store: %w", err)
	}
	if dto.Version != persistVersion {
		return nil, fmt.Errorf("db: unsupported store version %d (want %d)", dto.Version, persistVersion)
	}
	s := NewStore()
	for k, fd := range dto.Frames {
		w, ok := workload.ByName(fd.Workload)
		if !ok {
			return nil, fmt.Errorf("db: stored frame references unknown workload %q", fd.Workload)
		}
		f, err := NewFrame(fd.Workload, fd.Policy, fd.Records, w.Symbols(), fd.Summary, fd.Description)
		if err != nil {
			return nil, fmt.Errorf("db: stored frame %s: %w", Key(fd.Workload, fd.Policy), err)
		}
		s.Put(f)
		dto.Frames[k].Records = nil // the columns hold it now
	}
	return s, nil
}

// records reassembles every row, in order.
func (f *Frame) records() []trace.Record {
	out := make([]trace.Record, f.Len())
	for i := range out {
		out[i] = f.Record(i)
	}
	return out
}
