//go:build !amd64 || noasm

package cpu

// haveCPUID is false on builds without cpu_amd64.s: another architecture,
// or amd64 with -tags noasm, where no assembly tier is compiled and every
// feature reads false.
const haveCPUID = false

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32) { return }

func xgetbv() (eax, edx uint32) { return }
