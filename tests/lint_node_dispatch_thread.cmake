# Fails when a src/mendel file other than the indexer starts or hands off
# threads of its own: every StorageNode does all of its work on the one
# dispatch thread its transport gives it, and a process uses more cores by
# hosting more nodes. The Indexer's parallel sampling and placement
# planning are the only pool users in the layer.
#
#   cmake -DSOURCE_DIR=<repo root> -P tests/lint_node_dispatch_thread.cmake
file(GLOB files RELATIVE "${SOURCE_DIR}"
     "${SOURCE_DIR}/src/mendel/*.h" "${SOURCE_DIR}/src/mendel/*.cpp")
list(REMOVE_ITEM files src/mendel/indexer.h src/mendel/indexer.cpp)
foreach(file IN LISTS files)
  file(STRINGS "${SOURCE_DIR}/${file}" lines)
  set(number 0)
  foreach(line IN LISTS lines)
    math(EXPR number "${number} + 1")
    if(line MATCHES
       "thread_pool\\.h|ThreadPool|std::async|std::thread|std::future")
      message(SEND_ERROR
              "${file}:${number}: works off the dispatch thread: ${line}")
    endif()
  endforeach()
endforeach()
