// mw-analyze: golden-fixture self test. Each subdirectory of the fixtures
// dir is analyzed as its own root; expected findings are declared inline as
// `expect(<check>)` comments and compared exactly — extra findings fail the
// same as missing ones.
#pragma once

#include <string>

namespace mwa {

/// Returns 0 when every fixture matches its expectations, 1 otherwise.
int run_self_test(const std::string& fixtures_dir);

}  // namespace mwa
