//go:build amd64 && !noasm

package cpu

// haveCPUID is set where cpu_amd64.s provides cpuid and xgetbv.
const haveCPUID = true

// cpuid executes CPUID for leaf eaxArg, subleaf ecxArg (cpu_amd64.s).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the OS-enabled register state (cpu_amd64.s). Only
// call it once CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)
