package harness

import (
	"context"
	"fmt"
)

// Fused is the journal value of a fused multi-configuration unit: one
// value per configuration of a group that was simulated in a single trace
// pass (core.Run). The config descriptions ride along in the
// journal so a resume can verify the group behind a key still has the
// same shape and order — without them, editing a sweep axis between runs
// would silently replay stale values under matching keys.
type Fused[T any] struct {
	Configs []string `json:"configs"`
	Values  []T      `json:"values"`
}

// At returns the value for configuration index i.
func (f Fused[T]) At(i int) T { return f.Values[i] }

// FusedUnit builds the harness unit for one fused group: run computes all
// per-config values in a single pass (one value per entry of configs, in
// order), and the journal/resume machinery treats the group as one unit —
// one journal record, one failure domain, one resume decision. The
// returned unit's Validate rejects journal entries whose recorded config
// group differs from configs, so reshaping a sweep axis invalidates
// exactly the units it touches.
func FusedUnit[T any](key string, meta map[string]string, configs []string, run func(ctx context.Context) ([]T, error)) Unit[Fused[T]] {
	return Unit[Fused[T]]{
		Key:  key,
		Meta: meta,
		Run: func(ctx context.Context) (Fused[T], error) {
			values, err := run(ctx)
			if err != nil {
				return Fused[T]{}, err
			}
			if len(values) != len(configs) {
				return Fused[T]{}, fmt.Errorf("harness: fused unit %s produced %d values for %d configs", key, len(values), len(configs))
			}
			return Fused[T]{Configs: configs, Values: values}, nil
		},
		Validate: func(f Fused[T]) error {
			if len(f.Configs) != len(configs) {
				return fmt.Errorf("journaled config group has %d entries, current group has %d", len(f.Configs), len(configs))
			}
			for i, c := range configs {
				if f.Configs[i] != c {
					return fmt.Errorf("journaled config %d is %q, current group has %q", i, f.Configs[i], c)
				}
			}
			if len(f.Values) != len(f.Configs) {
				return fmt.Errorf("journaled fused value has %d values for %d configs", len(f.Values), len(f.Configs))
			}
			return nil
		},
	}
}
