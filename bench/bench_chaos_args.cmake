# bench_chaos must reject a malformed command line with exit 2 before its
# first round: no banner on stdout, a message on stderr. Each case is
# small (one 300 ms round of three nodes), so one it wrongly accepts runs
# at once and exits 0 or 1 instead of 2. The last case spells every flag
# correctly and must run clean and write its report.
#
#   cmake -DBENCH_CHAOS=<bench_chaos> -DWORK=<scratch dir> \
#         -P bench_chaos_args.cmake
set(cases
  "abc 300 3 1"
  "0 300 3 1"
  "1 abc 3 1"
  "1 0 3 1"
  "1 300x 3 1"
  "1 300 1 1"
  "1 300 3 -1"
  "1 300 3 1 5"
  "1 300 3 1 --loss=abc"
  "1 300 3 1 --loss=1"
  "1 300 3 1 --loss=-0.1"
  "1 300 3 1 --loss=nan"
  "1 300 3 1 --false-removal-budget=abc"
  "1 300 3 1 --false-removal-budget=-1"
  "1 300 3 1 --adaptve"
  "1 300 3 1 --json"
  "1 300 3 1 --json=")

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
foreach(case IN LISTS cases)
  separate_arguments(args UNIX_COMMAND "${case}")
  execute_process(COMMAND "${BENCH_CHAOS}" ${args} TIMEOUT 60
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT out STREQUAL "" OR err STREQUAL "")
    message(SEND_ERROR "'${case}': exit ${rc}, stdout '${out}', stderr '${err}'")
  else()
    message(STATUS "'${case}' rejected: ${err}")
  endif()
endforeach()

execute_process(COMMAND "${BENCH_CHAOS}" 2 300 4 7 --loss=0 --adaptive
                        --false-removal-budget=100 --json=${WORK}/ok.json
                TIMEOUT 120
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT EXISTS "${WORK}/ok.json")
  message(SEND_ERROR "every flag spelled right: exit ${rc}, stderr '${err}'")
else()
  message(STATUS "every flag spelled right: ran clean")
endif()
file(REMOVE_RECURSE "${WORK}")
