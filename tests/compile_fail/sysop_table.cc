// Compiles the SysOp row table (SysOpInfoOf in src/core/syscall.h) on its
// own, for the compile_fail cases that edit a row out of it.
#include "src/core/syscall.h"
