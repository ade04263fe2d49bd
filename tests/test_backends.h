// Shared helper: which backends the backend-parametrized tests sweep. The
// sequential backend is the reference every native run is compared with.
#pragma once

#include "parallel/backend.h"

namespace pp_test {

inline constexpr pp::backend_kind kBackends[] = {pp::backend_kind::sequential,
                                                 pp::backend_kind::native};

}  // namespace pp_test
