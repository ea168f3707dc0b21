package dmcs

import (
	"rmalocks/internal/rma"
	"rmalocks/internal/scheme"
)

// SchemeName is the canonical registry name of this lock.
const SchemeName = "D-MCS"

func init() {
	scheme.MustRegister(scheme.Descriptor{
		Name:    SchemeName,
		Aliases: []string{"dmcs"},
		Doc:     "topology-oblivious distributed MCS lock (§2.4): one flat distributed queue",
		// No CapTimeout: an enqueued MCS node is reachable by its
		// predecessor and cannot be unlinked without successor
		// cooperation, so a bounded acquire cannot abandon cleanly.
		Caps:  scheme.CapMutex,
		Order: 20,
		New: func(m *rma.Machine, t scheme.Tunables) (scheme.Lock, error) {
			return scheme.WrapMutex(SchemeName, New(m)), nil
		},
	})
}
