package core

// RegistryLen reports how many entries k's handle registry holds; the
// kernel test (package core_test) uses it to check pruning on both
// structures.
func RegistryLen[S, T any](k *Kernel[S, T]) int {
	k.hMu.Lock()
	defer k.hMu.Unlock()
	return len(k.handles)
}
