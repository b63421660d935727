package hgstore

// PayloadChecksum is the record checksum over payload, for external tests
// that edit a stored payload and must reseal it so the edit reaches the
// payload decoder instead of failing the checksum.
func PayloadChecksum(payload []byte) uint64 { return hashBytes(hashSeed, payload) }
