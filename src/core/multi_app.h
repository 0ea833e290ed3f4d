// The multi-isolate app's former name. perfbench/ is its only user;
// everything else uses core::PartitionedApp with an isolate count.
#pragma once

#include "core/app.h"

namespace msv::core {
using MultiIsolateApp = PartitionedApp;
}  // namespace msv::core
