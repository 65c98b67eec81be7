package rt

// SlotKeys is the interpreter's slot-to-key table, for the external tests
// that tie it to the emitter's naming.
var SlotKeys = slotKeys
