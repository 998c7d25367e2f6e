// Fixture: raw-assert. assert() and <cassert> are banned in all of src/ (no
// file is sanctioned): NDEBUG compiles assert out silently, while MW_CHECK
// throws and MW_ASSERT / MW_DCHECK fail loudly. A macro body is a use; an
// allow on a directive line covers that line only.
#include <cassert>  // expect(raw-assert)
#include<cassert>  // mw-analyze: allow(raw-assert) fixture suppression on a directive
#define CHECK(x) assert(x)  // expect(raw-assert)
#define GLOB "src/*.hpp"  // a string literal in a directive opens no comment
#include "cassert_shim.hpp"  // a project header merely named like it
#define CHECK_ALL(x) assert(x)  // expect(raw-assert)

void check(int x) {
    assert(x > 0);      // expect(raw-assert)
    assert (x < 100);   // expect(raw-assert)
    assert(x != 7);     // mw-analyze: allow(raw-assert) fixture suppression
    MW_ASSERT(x > 0);
    MW_ASSERT_MSG(x > 0, "positive");
    MW_DCHECK(x > 0, "positive");
    static_assert(sizeof(int) == 4);
    const bool assert_ok = x > 0;  // an identifier merely starting with assert
    options.assert = assert_ok;    // a field named assert, never called
    const char* doc = "assert(x > 0)";
}
