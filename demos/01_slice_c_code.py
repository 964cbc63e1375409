#!/usr/bin/env python3
"""Walk through the front end: lexing, candidate detection, slicing.

Run:  python demos/01_slice_c_code.py
"""

from slicevuln import build_slice, extract_candidates, lex

SOURCE = """\
#include <string.h>

int copy_message(char *dst, const char *src, int limit) {
    char header[16];
    int n = strlen(src);
    header[0] = 'M';
    if (n > 0) {
        strcpy(dst, src);           /* unbounded copy */
        total = n * width;
    }
    return n;
}
"""

# The lexer is lossless: token texts concatenate back to the input,
# comments and the #include directive included.
tokens = lex(SOURCE)
assert "".join(t.text for t in tokens) == SOURCE
print(f"lexed {len(tokens)} tokens, round-trip exact")
print()

# Candidate detection flags four construct families: risky API calls,
# array usage, pointer usage, arithmetic expressions.
candidates = extract_candidates(SOURCE)
print("candidates:")
for c in candidates:
    print(f"  line {c.line:>2}  {c.kind.value:<4} focus={c.focus}")
print()

# Each candidate expands to an intra-procedural slice: the candidate line
# plus lines linked through shared identifiers, within 2 hops and 30 lines.
api = [c for c in candidates if c.kind.value == "API" and c.focus == "strcpy"][0]
print(f"slice around the strcpy call (line {api.line}):")
print("-" * 50)
print(build_slice(api))
print("-" * 50)
