# cluster_harness must reject a malformed command line with exit 2 before
# it forks anything: no banner on stdout, a message on stderr. Each flag
# case names /bin/false as the daemon and puts a valid one-second timeout
# first, so a case the harness wrongly accepts fails fast (exit 1: its
# member exits at once) instead of waiting out the default timeout. A
# daemon path that is not an executable file is rejected the same way,
# and a daemon that exits at once fails the first phase with exit 1 well
# inside its timeout.
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
set(daemon /bin/false)

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
  expect_rejected("${case}" "${HARNESS}" "${daemon}"
                  --dir "${WORK}" --timeout-s 1 ${args})
endforeach()
foreach(env IN LISTS env_cases)
  expect_rejected("${env}" "${CMAKE_COMMAND}" -E env "${env}" "${HARNESS}"
                  "${daemon}" --dir "${WORK}" --nodes 2)
endforeach()
expect_rejected("missing daemon" "${HARNESS}" "${WORK}/no-raincored"
                --dir "${WORK}" --nodes 1 --timeout-s 1)
expect_rejected("directory as daemon" "${HARNESS}" "${CMAKE_CURRENT_LIST_DIR}"
                --dir "${WORK}" --nodes 1 --timeout-s 1)
if(EXISTS "${WORK}")
  message(SEND_ERROR "a rejected command line created ${WORK}")
endif()

string(TIMESTAMP t0 "%s")
execute_process(COMMAND "${HARNESS}" "${daemon}" --nodes 1 --timeout-s 60
                        --dir "${WORK}/exits-at-once"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(TIMESTAMP t1 "%s")
math(EXPR secs "${t1} - ${t0}")
if(NOT rc EQUAL 1 OR secs GREATER 20 OR
   NOT err MATCHES "node 1 exited with status 1")
  message(SEND_ERROR "${daemon} as daemon: exit ${rc} after ${secs} s, "
                     "stderr '${err}'")
else()
  message(STATUS "${daemon} as daemon failed in ${secs} s: ${err}")
endif()
file(REMOVE_RECURSE "${WORK}")
