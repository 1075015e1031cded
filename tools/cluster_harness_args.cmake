# cluster_harness must reject a malformed command line with exit 2 before
# it forks anything: no banner on stdout, a message on stderr. Each case
# puts a valid one-second timeout first, so a case the harness wrongly
# accepts fails fast (exit 1) instead of waiting out the default timeout,
# and names a raincored that does not exist, so it starts no daemon.
#
#   cmake -DHARNESS=<cluster_harness> -DWORK=<scratch dir> \
#         -P cluster_harness_args.cmake
set(cases
  "--nodes 0"
  "--nodes abc"
  "--nodes -1"
  "--nodes 4x"
  "--nodes 65"
  "--shards 0"
  "--shards 65"
  "--base-port 0"
  "--base-port 65536"
  "--base-port 65534 --nodes 3"
  "--timeout-s 0"
  "--timeout-s -5"
  "--timeout-s inf"
  "--timeout-s nan"
  "--timeout-s 2s"
  "--kill9 --nodes 1"
  "--poll-ms 100"
  "--respawn-delay-s 1"
  "--nodes")
set(env_cases "CLUSTER_TIMEOUT_S=abc" "CLUSTER_TIMEOUT_S=0")

file(REMOVE_RECURSE "${WORK}")
set(failures 0)
function(expect_rejected label)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT out STREQUAL "" OR err STREQUAL "")
    message(SEND_ERROR "'${label}': exit ${rc}, stdout '${out}', stderr '${err}'")
  else()
    message(STATUS "'${label}' rejected: ${err}")
  endif()
endfunction()

foreach(case IN LISTS cases)
  separate_arguments(args UNIX_COMMAND "${case}")
  expect_rejected("${case}" "${HARNESS}" "${WORK}/no-raincored"
                  --dir "${WORK}" --timeout-s 1 ${args})
endforeach()
foreach(env IN LISTS env_cases)
  expect_rejected("${env}" "${CMAKE_COMMAND}" -E env "${env}" "${HARNESS}"
                  "${WORK}/no-raincored" --dir "${WORK}" --nodes 2)
endforeach()
if(EXISTS "${WORK}")
  message(SEND_ERROR "a rejected command line created ${WORK}")
endif()
