"""The MiniC standard library.

These functions play the role glibc plays for the paper's benchmarks:
real library code, with real loops and conditional branches, that the
applications call on their way to failure.  Without toggling wrappers,
the branches retired inside these functions evict application branches
from the 16-entry LBR — which is exactly the effect the paper's
"w/ tog." vs "w/o tog." columns in Table 6 measure.

All functions are marked ``library``, making them toggling targets.
That also makes their code independent of toggling, so, like a
prebuilt glibc, the stdlib is generated once per process
(:func:`stdlib_template`) and every program links a relocated copy.
"""

from repro.compiler.codegen import Compiler
from repro.lang.parser import parse

STDLIB_SOURCE = """
// ---- allocation ------------------------------------------------------
int __brk = 0;

library int malloc(int nwords) {
    if (__brk == 0) {
        __brk = 0x200000;            // heap base
    }
    int p = __brk;
    __brk = __brk + nwords * 8;
    return p;
}

library int free(int p) {
    return 0;                        // bump allocator: no-op
}

// ---- memory ----------------------------------------------------------
library int memmove(int dst, int src, int nwords) {
    int i = 0;
    if (dst < src) {
        while (i < nwords) {
            dst[i] = src[i];
            i = i + 1;
        }
    } else {
        i = nwords - 1;
        while (i >= 0) {
            dst[i] = src[i];
            i = i - 1;
        }
    }
    return dst;
}

library int memset(int dst, int value, int nwords) {
    int i = 0;
    while (i < nwords) {
        dst[i] = value;
        i = i + 1;
    }
    return dst;
}

library int memcmp(int a, int b, int nwords) {
    int i = 0;
    while (i < nwords) {
        if (a[i] != b[i]) {
            if (a[i] < b[i]) {
                return -1;
            }
            return 1;
        }
        i = i + 1;
    }
    return 0;
}

// ---- arithmetic helpers ----------------------------------------------
library int abs_i(int x) {
    if (x < 0) {
        return 0 - x;
    }
    return x;
}

library int min_i(int a, int b) {
    if (a < b) {
        return a;
    }
    return b;
}

library int max_i(int a, int b) {
    if (a > b) {
        return a;
    }
    return b;
}

// ---- formatting (branchy, like real printf machinery) -----------------
library int format_int(int value) {
    int digits = 1;
    if (value < 0) {
        value = 0 - value;
        digits = digits + 1;
    }
    while (value > 9) {
        value = value / 10;
        digits = digits + 1;
    }
    return digits;
}

library int fput_int(int value) {
    format_int(value);
    print(value);
    return 0;
}

library int fput_str(int msg) {
    print_str(msg);
    return 0;
}

// ---- logging (GNU coreutils style) ------------------------------------
library int error(int status, int msg) {
    print_str(msg);
    if (status != 0) {
        exit(status);
    }
    return 0;
}

library int warn(int msg) {
    print_str(msg);
    return 0;
}

library int printf_d(int msg, int value) {
    format_int(value);
    print_str(msg);
    print(value);
    return 0;
}
"""

_CACHED_MODULE = None
_CACHED_TEMPLATE = None


def stdlib_module():
    """Return the parsed stdlib module (cached; the AST is never mutated)."""
    global _CACHED_MODULE
    if _CACHED_MODULE is None:
        _CACHED_MODULE = parse(STDLIB_SOURCE, source_name="<stdlib>")
    return _CACHED_MODULE


def stdlib_template():
    """Return the stdlib's generated code (cached): a relocatable
    :class:`~repro.compiler.codegen.FunctionTemplate` per function name,
    generated from :func:`stdlib_module`'s functions on first use."""
    global _CACHED_TEMPLATE
    if _CACHED_TEMPLATE is None:
        _CACHED_TEMPLATE = Compiler(stdlib_module()).template()
    return _CACHED_TEMPLATE


def stdlib_function_names():
    """Return the names of all stdlib functions."""
    return tuple(f.name for f in stdlib_module().functions)
