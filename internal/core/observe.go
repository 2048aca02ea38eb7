package core

// StructEventKind enumerates the structural transitions a core.Observer is
// told about. The kernel emits them for the stack and the queue alike, so
// one consumer — internal/obs's tracer — serves both structures.
type StructEventKind uint8

const (
	// StructReconfig: a new geometry was published (Reconfigure, SetWindow,
	// SetWidth, or the adaptive controller). Emitted at the publish point,
	// before any shrink migration runs, so a reconfiguration's event always
	// precedes its handoff's.
	StructReconfig StructEventKind = iota + 1
	// StructShrinkHandoff: a width shrink's warm migration completed;
	// Displacement carries the bound the splice added (the increment of
	// ShrinkDisplacementBound).
	StructShrinkHandoff
	// StructPlacement: SetPlacement rebuilt the slot→socket home map.
	StructPlacement
)

// StructEvent describes one structural transition. Width/Depth/Shift (and
// Epoch) are the geometry now active; OldWidth is the superseded width,
// Requester the socket attribution the change carried (-1 when none),
// Stranded the number of slots the change dropped,
// Displacement the migration's addition to the displacement bound, and
// Sockets the configured socket count (placement events). Stranded counts
// dropped slots, whether or not they held items.
type StructEvent struct {
	Kind         StructEventKind
	Epoch        uint64
	OldWidth     int
	Width        int
	Depth        int64
	Shift        int64
	Requester    int
	Stranded     int
	Displacement int64
	Sockets      int
}

// Observer receives structural transition events. Implementations must be
// fast and must not call back into the emitting structure: they run on the
// reconfiguring goroutine with the reconfiguration lock held. internal/obs
// provides the ring-buffer implementation (obs.StructTracer).
type Observer interface {
	ObserveStruct(StructEvent)
}
