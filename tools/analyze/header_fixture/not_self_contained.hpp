// Fixture for the header self-containment check: this header names
// std::string without including <string>, so it compiles only after some
// other include has pulled <string> in. Compiled as its own translation
// unit it must fail, proving the check bites (ctest
// mw_headers_broken_fixture_fails expects exactly that failure).
#pragma once

inline std::string not_self_contained() { return {}; }
