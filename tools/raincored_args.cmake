# raincored must reject a malformed command line with exit 2 before it
# reads its config: no banner on stdout, a message on stderr, and no
# storage_dir created. The config is valid (one node, one shard, an
# ephemeral loopback port, no peers), so a case raincored wrongly accepts
# runs for real: a value read as 0 s exits 0, and a run that never stops
# meets the per-case timeout. The last case runs the same config for 0 s
# and must exit 0, so the config itself is known to be good.
#
#   cmake -DRAINCORED=<raincored> -DWORK=<scratch dir> \
#         -P raincored_args.cmake
set(cases
  "--run-s abc"
  "--run-s -1"
  "--run-s nan"
  "--run-s inf"
  "--run-s 2s"
  "--run-s"
  "--run-secs 1"
  "--run-s 0 extra"
  "extra")
set(storage "${WORK}/storage")
set(config "${WORK}/n1.json")

file(REMOVE_RECURSE "${WORK}")
file(WRITE "${config}"
     "{\"node\": 1, \"shards\": 1, \"bind_ip\": \"127.0.0.1\", \"port\": 0,"
     " \"storage_dir\": \"${storage}\", \"peers\": []}\n")
foreach(case IN LISTS cases)
  separate_arguments(args UNIX_COMMAND "${case}")
  execute_process(COMMAND "${RAINCORED}" "${config}" ${args} TIMEOUT 5
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT out STREQUAL "" OR err STREQUAL "")
    message(SEND_ERROR "'${case}': exit ${rc}, stdout '${out}', stderr '${err}'")
  else()
    message(STATUS "'${case}' rejected: ${err}")
  endif()
endforeach()
if(EXISTS "${storage}")
  message(SEND_ERROR "a rejected command line created ${storage}")
endif()

execute_process(COMMAND "${RAINCORED}" "${config}" --run-s 0 TIMEOUT 60
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT EXISTS "${storage}/metrics.json")
  message(SEND_ERROR "'--run-s 0': exit ${rc}, stdout '${out}', "
                     "stderr '${err}'")
else()
  message(STATUS "'--run-s 0' ran and drained: ${out}")
endif()
file(REMOVE_RECURSE "${WORK}")
