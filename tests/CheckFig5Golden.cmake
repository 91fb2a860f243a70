# Figure-5 golden check: run bench/fig5_object_sens with tracing on and
# byte-compare the run report's `deterministic` section, dumped exactly as
# CI's perf smoke dumps it (json.dumps(..., indent=1, sort_keys=True) plus a
# newline), with the committed bench/golden/fig5_deterministic.json.  The
# section pins relation sizes, worklist pops and trace counters, so any diff
# means the solver changed results, not just speed.
#
# Run as: cmake -DFIG5=<path> -DPYTHON=<python3> -DGOLDEN=<json>
#               -DWORK_DIR=<dir> -P CheckFig5Golden.cmake

foreach(VAR FIG5 PYTHON GOLDEN WORK_DIR)
  if(NOT DEFINED ${VAR})
    message(FATAL_ERROR "pass -D${VAR}=...")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(
  COMMAND ${FIG5} --trace=${WORK_DIR}/fig5.json
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE CODE
  OUTPUT_VARIABLE OUT
  ERROR_VARIABLE ERR)
if(NOT CODE EQUAL 0)
  message(FATAL_ERROR "fig5_object_sens failed (exit ${CODE})\n${OUT}${ERR}")
endif()

execute_process(
  COMMAND ${PYTHON} -c
    "import json, sys; d = json.load(open(sys.argv[1]))['deterministic']; open(sys.argv[2], 'w').write(json.dumps(d, indent=1, sort_keys=True) + '\\n')"
    ${WORK_DIR}/fig5.report.json ${WORK_DIR}/fig5_deterministic.json
  RESULT_VARIABLE CODE
  ERROR_VARIABLE ERR)
if(NOT CODE EQUAL 0)
  message(FATAL_ERROR "could not dump the deterministic section\n${ERR}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
    ${WORK_DIR}/fig5_deterministic.json ${GOLDEN}
  RESULT_VARIABLE CODE)
if(NOT CODE EQUAL 0)
  message(FATAL_ERROR "fig5 deterministic section drifted from ${GOLDEN}; "
                      "see ${WORK_DIR}/fig5_deterministic.json")
endif()
